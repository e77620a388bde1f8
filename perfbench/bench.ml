(* The repository benchmark.

   Three simulated workloads drive the split stack from outside,
   through the public constructors only:

     bench.exe --workload bulk|churn|recovery --seed N
               --seconds S --trace 0|1

   With --trace 0 the run measures the end-to-end metrics (untraced);
   with --trace 1 it is the separate traced run that yields the
   per-layer metrics. The last line of standard output is one JSON
   object {"correct", "attempted", "failed", "metrics"}; a violated
   correctness gate prints it with "correct": false and exits 1.

   The simulated workloads own their engine and step it event by
   event, repeating the same fixed simulated span until the wall-clock
   budget is spent: simulated metrics come from one span (they are
   deterministic per seed, which every repetition re-checks), wall
   times are medians over the repetitions. perfbench/README.md says
   why each workload exists and which end-to-end metric each layer
   metric should move. bulk's traced run also runs the stack on two
   real domains, for the runtime's per-layer metrics. *)

module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Rng = Newt_sim.Rng
module Hist = Newt_sim.Stats.Hist
module Costs = Newt_hw.Costs
module Cpu = Newt_hw.Cpu
module Hook = Newt_channels.Hook
module Sim_chan = Newt_channels.Sim_chan
module Spsc = Newt_channels.Spsc_queue
module Pool = Newt_channels.Pool
module Request_db = Newt_channels.Request_db
module Addr = Newt_net.Addr
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire
module Rule = Newt_pf.Rule
module Pf_engine = Newt_pf.Pf_engine
module Conntrack = Newt_pf.Conntrack
module Capacity = Newt_stack.Capacity
module Component = Newt_stack.Component
module Sink = Newt_stack.Sink
module Tcp_srv = Newt_stack.Tcp_srv
module Pf_srv = Newt_stack.Pf_srv
module Apps = Newt_sockets.Apps
module Reincarnation = Newt_reliability.Reincarnation
module Host = Newt_core.Host
module S = Newt_scale.Sharded_stack
module Native = Newt_runtime.Native
module Loop = Newt_runtime.Loop

(* {1 Metric catalogues}

   Every workload prints every metric of the catalogue its mode asks
   for; a per-layer metric of a layer the workload does not run reads
   0. "unit" in a unit is the workload's unit of work: a TCP segment
   sent by the stack (an RPC on churn). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("goodput_mbps", "Mbps");
    ("delay_mean_us", "us");
    ("delay_tail_us", "us");
    ("heap_peak_mb", "MB");
  ]

let roles = [ "sc"; "tcp"; "ip"; "pf"; "drv" ]
let per_role fmt unit_ = List.map (fun r -> (Printf.sprintf fmt r, unit_)) roles

let per_layer =
  [
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.alloc_words_per_event", "words/event");
    ("sim.major_gcs", "count");
  ]
  @ per_role "cpu.%s.cycles_per_seg" "cycles/unit"
  @ per_role "cpu.%s.util" "ratio"
  @ per_role "capacity.%s.cycles_per_seg" "cycles/unit"
  @ per_role "gap.%s" "ratio"
  @ per_role "chan.%s.handoffs" "1/unit"
  @ per_role "chan.%s.msgs" "1/unit"
  @ per_role "pool.%s.allocs" "1/unit"
  @ per_role "reqdb.%s.submits" "1/unit"
  @ [
      ("reqdb.aborts", "count");
      ("reqdb.stale_confirms", "count");
      ("chan.dropped", "count");
      ("tcp.retransmits", "count");
      ("tcp.dup_segs_in", "count");
      ("tcp.segs_out", "count");
      ("pf.verdicts_per_seg", "1/unit");
      ("pf.conntrack_entries", "count");
      ("pf.evictions", "count");
      ("pf.filter_ns", "ns");
      ("nic.rx_imbalance", "ratio");
      ("scale.steering_violations", "count");
      ("rpc.completed", "count");
      ("rpc.connect_p99_us", "us");
      ("rpc.p999_us", "us");
      ("ip_outage_ms", "ms");
      ("pf_outage_ms", "ms");
      ("rs.ip_recovered_ms", "ms");
      ("rs.pf_recovered_ms", "ms");
      ("rs.restarts", "count");
      ("recovery.ip_residual_ms", "ms");
      ("loop.parks_per_s", "1/s");
      ("loop.wakes_per_s", "1/s");
      ("loop.posts_remote_per_s", "1/s");
      ("loop.executed_per_s", "1/s");
      ("loop0.parks_per_s", "1/s");
      ("loop0.executed_per_s", "1/s");
      ("loop1.parks_per_s", "1/s");
      ("loop1.executed_per_s", "1/s");
      ("ring.max_occupancy", "count");
      ("ring.sent_per_frame", "ratio");
      ("native.frames_per_s", "1/s");
      ("native.rx_no_buffer", "count");
      ("spsc.cross_domain_ns_per_msg", "ns");
      ("wall.us_per_seg", "us/unit");
      ("wall.sim.us_per_seg", "us/unit");
      ("wall.channels.us_per_seg", "us/unit");
      ("wall.pf.us_per_seg", "us/unit");
      ("wall.net.us_per_seg", "us/unit");
      ("wall.unattributed.us_per_seg", "us/unit");
      ("trace.overhead", "ratio");
      ("fail_ratio", "ratio");
      ("model.fingerprint", "id");
    ]

(* {1 Small helpers} *)

let fi = float_of_int
let clock = Unix.gettimeofday
let ratio a b = if b > 0 then fi a /. fi b else 0.0
let lookup values name = Option.value (List.assoc_opt name values) ~default:0.0
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let segments bytes = (bytes + 1459) / 1460
let checks l = List.filter_map (fun (bad, what) -> if bad then Some what else None) l

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {2 Machine-speed calibration}

   The benchmark shares its machine, and the speed a run sees drifts by
   tens of percent, sometimes twofold, over minutes. Every timed section
   is bracketed by a fixed reference computation that uses no code of
   the repository (hashing, allocation, a little float work), and
   reported times are scaled to a reference machine on which that
   computation takes [calibration_ref_s]: time x ref / measured. *)

let calibration_ref_s = 0.01

let calibrate () =
  let t0 = clock () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for i = 1 to 220_000 do
    Hashtbl.replace h (i land 4095) [ fi i ];
    acc := !acc +. sqrt (fi (Hashtbl.length h))
  done;
  ignore (Sys.opaque_identity !acc);
  clock () -. t0

(* [f ()]'s result, its wall-clock duration, and the factor that turns
   seconds of this moment into reference seconds. *)
let timed f =
  let c0 = calibrate () in
  let t0 = clock () in
  let x = f () in
  let dt = clock () -. t0 in
  let c1 = calibrate () in
  (x, dt, calibration_ref_s /. ((c0 +. c1) /. 2.0))

let heap_peak_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Component names are a role plus an index ("tcp3", "drv0",
   "mqdrv"): the role is the leading run of letters, the multi-queue
   driver counting as a driver. *)
let role_of name =
  let n = String.length name in
  let rec letters i = if i < n && name.[i] >= 'a' && name.[i] <= 'z' then letters (i + 1) else i in
  match String.sub name 0 (letters 0) with "mqdrv" -> "drv" | r -> r

(* The [q]th percentile of a latency histogram in which [failures]
   more operations count as above every limit. *)
let percentile_with_failures h ~failures ~ceiling q =
  let n = Hist.count h in
  let total = n + failures in
  if q /. 100.0 *. fi total > fi n then ceiling
  else Option.value (Hist.percentile h (q *. fi total /. fi n)) ~default:ceiling

(* Mean and nearest-rank 99th percentile of raw latency samples, with
   [failures] more operations counted as above every limit. *)
let mean_p99 samples ~failures ~ceiling =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (0.99 *. fi (n + failures))) in
  ( (if failures > 0 || n = 0 then ceiling else Array.fold_left ( +. ) 0.0 a /. fi n),
    if rank > n || rank = 0 then ceiling else a.(rank - 1) )

(* {1 The cost model's fingerprint}

   A digest of [Costs.default] and of every [Capacity] stage of every
   Table II configuration: a change to the cost constants shows up as a
   changed model, not as a speed-up. *)

let model_fingerprint =
  lazy
    (let stages =
       List.concat_map
         (fun c ->
           List.map
             (fun (s : Capacity.stage) ->
               Printf.sprintf "%s/%s=%h" (Capacity.name c) s.Capacity.label
                 s.Capacity.cycles_per_segment)
             (Capacity.evaluate c).Capacity.stages)
         Capacity.all
     in
     Digest.to_hex
       (Digest.string (Marshal.to_string Costs.default [] ^ String.concat "|" stages)))

let fingerprint_value hex = fi (int_of_string ("0x" ^ String.sub hex 0 7))

(* {1 Simulated worlds} *)

type outcome = {
  values : (string * float) list;  (** Simulated metrics: deterministic for a seed. *)
  units : int;  (** Units of work done (see the catalogues). *)
  attempted : int;
  failed : int;
  violations : string list;
}

type world = {
  engine : Engine.t;
  span : Time.cycles;  (** Simulated time to run, drain included. *)
  finish : unit -> outcome;
}

type workload = {
  build : seed:int -> world;
  pf_packets : seed:int -> Rule.t list * (int -> Rule.packet);
      (** The workload's ruleset and flow mix, for timing
          [Pf_engine.filter] from outside. *)
}

let bulk_port = 5001

(* Busy cycles per unit of work of each role's cores, and the busiest
   member's utilisation over [window] cycles. *)
let cpu_metrics comps ~units ~window =
  List.concat_map
    (fun role ->
      let cores =
        List.filter_map
          (fun c -> if role_of (Component.name c) = role then Some (Component.core c) else None)
          comps
      in
      let util =
        List.fold_left (fun acc c -> Float.max acc (ratio (Cpu.busy_cycles c) window)) 0.0 cores
      in
      [
        (Printf.sprintf "cpu.%s.cycles_per_seg" role, ratio (sum Cpu.busy_cycles cores) units);
        (Printf.sprintf "cpu.%s.util" role, util);
      ])
    roles

let start_pings engine sink ~dst ~first ~period ~until rtts sent =
  let rec at t =
    if t < until then
      ignore
        (Engine.schedule_at engine t (fun () ->
             incr sent;
             Sink.ping sink ~dst (fun ~rtt -> rtts := (Time.to_seconds rtt *. 1e6) :: !rtts);
             at (t + period))
          : Engine.handle)
  in
  at first

(* Flow [i mod flows] of a pass-all bulk mix: two data segments out
   per ACK in, as on the wire. *)
let bulk_packets ~flows ~dport i =
  let f = i mod flows in
  let local = Addr.Ipv4.v 10 0 (f mod 5) 1 and peer = Addr.Ipv4.v 10 0 (f mod 5) 2 in
  let sport = 40_000 + f in
  if i mod 3 = 2 then
    { Rule.dir = `In; proto = `Tcp; src_ip = peer; dst_ip = local; src_port = dport; dst_port = sport }
  else
    { Rule.dir = `Out; proto = `Tcp; src_ip = local; dst_ip = peer; src_port = sport; dst_port = dport }

(* {2 bulk: Table II line 3 at packet level} *)

let bulk_nics = 5
let bulk_send_s = 0.1
let bulk_drain_s = 0.03

let capacity_metrics cpu =
  List.concat_map
    (fun (st : Capacity.stage) ->
      let role =
        match st.Capacity.label with
        | "tcp server" -> Some "tcp"
        | "ip server" -> Some "ip"
        | "pf server" -> Some "pf"
        | "driver server" -> Some "drv"
        | "syscall server" -> Some "sc"
        | _ -> None
      in
      match role with
      | None -> []
      | Some r ->
          let sim = lookup cpu (Printf.sprintf "cpu.%s.cycles_per_seg" r) in
          [
            (Printf.sprintf "capacity.%s.cycles_per_seg" r, st.Capacity.cycles_per_segment);
            (Printf.sprintf "gap.%s" r, sim /. st.Capacity.cycles_per_segment);
          ])
    (Capacity.evaluate ~nics:bulk_nics Capacity.Split_dedicated_sc).Capacity.stages

let build_bulk ~seed =
  let config = { Host.default_config with Host.seed; nics = bulk_nics; app_cores = bulk_nics } in
  let h = Host.create ~config () in
  let engine = Host.engine h in
  let until = Time.of_seconds bulk_send_s in
  let received = Array.make bulk_nics 0 and in_window = Array.make bulk_nics 0 in
  for i = 0 to bulk_nics - 1 do
    Sink.sink_tcp (Host.sink h i) ~port:bulk_port ~on_bytes:(fun ~at n ->
        received.(i) <- received.(i) + n;
        if at <= until then in_window.(i) <- in_window.(i) + n)
  done;
  let iperfs =
    List.init bulk_nics (fun i ->
        Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
          ~dst:(Host.sink_addr h i) ~port:bulk_port ~until ())
  in
  (* Latency under load: an ICMP echo every 100 us through the loaded
     stack, its phase drawn from the seed. *)
  let rng = Rng.create seed in
  let rtts = ref [] and pings = ref 0 in
  start_pings engine (Host.sink h 0) ~dst:(Host.local_addr h 0)
    ~first:(Time.of_micros (1000.0 +. Rng.float rng 100.0))
    ~period:(Time.of_micros 100.0) ~until rtts pings;
  let tcp_srv = Host.tcp_srv h in
  (* Per-segment costs are per 1460 payload bytes delivered, the
     Capacity model's segment. *)
  let cpu = ref [] and segs = ref 0 and units = ref 0 in
  ignore
    (Engine.schedule_at engine until (fun () ->
         segs := Tcp_srv.total_segs_out tcp_srv;
         units := Array.fold_left ( + ) 0 in_window / 1460;
         cpu := cpu_metrics (Host.components h) ~units:!units ~window:until)
      : Engine.handle);
  let finish () =
    let sinks = List.init bulk_nics (Host.sink h) in
    let lost = max 0 (sum Apps.Iperf.bytes_sent iperfs - Array.fold_left ( + ) 0 received) in
    let csum = sum Sink.checksum_failures sinks in
    let unanswered = !pings - List.length !rtts in
    let mean, p99 = mean_p99 !rtts ~failures:unanswered ~ceiling:(bulk_send_s *. 1e6) in
    let pf = Host.pf_srv h in
    {
      values =
        [
          ("goodput_mbps", fi (Array.fold_left ( + ) 0 in_window) *. 8.0 /. bulk_send_s /. 1e6);
          ("delay_mean_us", mean);
          ("delay_tail_us", p99);
          ("tcp.retransmits", fi (Tcp.stats (Tcp_srv.engine tcp_srv)).Tcp.retransmits);
          ("tcp.dup_segs_in", fi (sum (fun s -> (Tcp.stats (Sink.tcp s)).Tcp.dup_segs_in) sinks));
          ("tcp.segs_out", fi !segs);
          ("pf.verdicts_per_seg", ratio (Pf_srv.verdicts_issued pf) !units);
          ("pf.conntrack_entries", fi (Conntrack.size (Pf_engine.conntrack (Pf_srv.engine_of pf))));
          ("pf.evictions", fi (Pf_srv.evicted_half_open pf + Pf_srv.evicted_established pf));
        ]
        @ !cpu @ capacity_metrics !cpu;
      units = !units;
      attempted = !segs + !pings;
      failed = segments lost + csum + unanswered;
      violations =
        checks
          [
            (csum > 0, Printf.sprintf "%d checksum failures at the sinks" csum);
            (lost > 0, Printf.sprintf "%d bulk bytes undelivered after drain" lost);
            (unanswered > 0, Printf.sprintf "%d of %d pings unanswered" unanswered !pings);
          ];
    }
  in
  { engine; span = until + Time.of_seconds bulk_drain_s; finish }

let bulk =
  {
    build = build_bulk;
    pf_packets =
      (fun ~seed:_ -> ([ Rule.pass_all ], bulk_packets ~flows:bulk_nics ~dport:bulk_port));
  }

(* {2 churn: open-loop short RPCs next to one bulk flow, sharded stack} *)

(* Every closed connection keeps its socket buffers until the end of
   the run, so the span is what bounds the heap: 1000 RPCs. *)
let churn_send_s = 0.05
let churn_drain_s = 0.05
let churn_rate = 20_000.0
let churn_workers = 8
let echo_port = 22

let build_churn ~seed =
  let config =
    {
      S.default_config with
      S.seed;
      shards = 8;
      ip_replicas = 4;
      pf_shards = 2;
      pf_rules = Some [ Rule.pass_all ];
      (* A DUT tuned for RPC churn: a closed RPC's four-tuple sits in
         TIME_WAIT for 2 MSL, and a short MSL keeps 20k conn/s inside
         each shard's ephemeral ports; 64 KiB socket buffers (still
         enough for the bulk flow to fill its shard) keep the heap of
         a thousand connections small. *)
      tcp_config =
        Some
          {
            Tcp.default_config with
            Tcp.msl = Time.of_seconds 0.02;
            snd_buf = 64 * 1024;
            rcv_buf = 64 * 1024;
          };
    }
  in
  let s = S.create ~config () in
  let engine = S.engine s in
  let until = Time.of_seconds churn_send_s in
  Sink.serve_tcp_echo (S.sink s) ~port:echo_port;
  let bulk_rx = ref 0 and bulk_in_window = ref 0 in
  Sink.sink_tcp (S.sink s) ~port:bulk_port ~on_bytes:(fun ~at n ->
      bulk_rx := !bulk_rx + n;
      if at <= until then bulk_in_window := !bulk_in_window + n);
  let iperf =
    Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s) ~dst:(S.sink_addr s)
      ~port:bulk_port ~until ()
  in
  (* Each worker starts at a phase drawn from the seed, so the offered
     load spreads over the pacing interval instead of arriving in
     bursts of [churn_workers]. *)
  let pace = Time.of_seconds (fi churn_workers /. churn_rate) in
  let rng = Rng.create seed in
  let churners = ref [] in
  for _ = 1 to churn_workers do
    let app = S.app s in
    S.at s (Rng.int rng pace) (fun () ->
        churners :=
          Apps.Rpc_churn.start (S.machine s) ~sc:(S.sc s) ~app ~dst:(S.sink_addr s)
            ~port:echo_port ~pace ~until ()
          :: !churners)
  done;
  let shards = List.init config.S.shards (S.tcp_shard s) in
  let completed () = sum Apps.Rpc_churn.completed !churners in
  let cpu = ref [] and rpcs = ref 0 and segs = ref 0 in
  ignore
    (Engine.schedule_at engine until (fun () ->
         rpcs := completed ();
         segs := sum Tcp_srv.total_segs_out shards;
         cpu := cpu_metrics (S.components s) ~units:!rpcs ~window:until)
      : Engine.handle);
  let finish () =
    let request = Hist.create () and connect = Hist.create () in
    List.iter
      (fun c ->
        Hist.merge ~into:request (Apps.Rpc_churn.request_hist c);
        Hist.merge ~into:connect (Apps.Rpc_churn.connect_hist c))
      !churners;
    let started = sum Apps.Rpc_churn.started !churners in
    let errors = sum Apps.Rpc_churn.errors !churners in
    let shed = sum Apps.Rpc_churn.shed !churners in
    let unfinished = sum Apps.Rpc_churn.outstanding !churners in
    let failures = errors + shed + unfinished in
    let ceiling = (churn_send_s +. churn_drain_s) *. 1e6 in
    let csum = Sink.checksum_failures (S.sink s) in
    let steering = S.steering_violations s in
    let lost = max 0 (Apps.Iperf.bytes_sent iperf - !bulk_rx) in
    let pf = Array.to_list (S.pf_shard_stats s) in
    {
      values =
        [
          ("goodput_mbps", fi !bulk_in_window *. 8.0 /. churn_send_s /. 1e6);
          ( "delay_mean_us",
            if failures > 0 then ceiling else Option.value (Hist.mean request) ~default:ceiling );
          ("delay_tail_us", percentile_with_failures request ~failures ~ceiling 99.0);
          ("rpc.completed", fi (completed ()));
          ("rpc.connect_p99_us", Option.value (Hist.percentile connect 99.0) ~default:0.0);
          (* p999 only once at least ten samples lie beyond it. *)
          ( "rpc.p999_us",
            if Hist.count request >= 10_000 then
              percentile_with_failures request ~failures ~ceiling 99.9
            else 0.0 );
          ( "tcp.retransmits",
            fi (sum (fun t -> (Tcp.stats (Tcp_srv.engine t)).Tcp.retransmits) shards) );
          ("tcp.dup_segs_in", fi (Tcp.stats (Sink.tcp (S.sink s))).Tcp.dup_segs_in);
          ("tcp.segs_out", fi !segs);
          ("pf.verdicts_per_seg", ratio (sum (fun p -> p.S.verdicts) pf) !rpcs);
          ("pf.conntrack_entries", fi (sum (fun p -> p.S.entries) pf));
          ( "pf.evictions",
            fi (sum (fun p -> p.S.evicted_half_open + p.S.evicted_established) pf) );
          ("nic.rx_imbalance", S.imbalance_ratio s);
          ("scale.steering_violations", fi steering);
        ]
        @ !cpu;
      units = !rpcs;
      attempted = started + shed;
      failed = failures + csum + steering + segments lost;
      violations =
        checks
          [
            (csum > 0, Printf.sprintf "%d checksum failures at the sink" csum);
            ( failures > 0,
              Printf.sprintf "RPCs: %d started, %d completed, %d errors, %d shed, %d unfinished"
                started (completed ()) errors shed unfinished );
            (steering > 0, Printf.sprintf "%d steering violations" steering);
            (lost > 0, Printf.sprintf "%d bulk bytes undelivered after drain" lost);
          ];
    }
  in
  { engine; span = until + Time.of_seconds churn_drain_s; finish }

let churn =
  {
    build = build_churn;
    pf_packets =
      (fun ~seed:_ ->
        (* Every RPC is a fresh flow of ten packets; every fifth packet
           belongs to the bulk flow. *)
        ( [ Rule.pass_all ],
          fun i ->
            if i mod 5 = 0 then bulk_packets ~flows:1 ~dport:bulk_port i
            else
              let local = Addr.Ipv4.v 10 0 0 1 and peer = Addr.Ipv4.v 10 0 0 2 in
              let sport = 1024 + (i / 10 mod 60_000) in
              if i mod 2 = 0 then
                {
                  Rule.dir = `In;
                  proto = `Tcp;
                  src_ip = peer;
                  dst_ip = local;
                  src_port = echo_port;
                  dst_port = sport;
                }
              else
                {
                  Rule.dir = `Out;
                  proto = `Tcp;
                  src_ip = local;
                  dst_ip = peer;
                  src_port = sport;
                  dst_port = echo_port;
                } ));
  }

(* {2 recovery: an IP crash, then a PF crash, under one bulk flow} *)

let recovery_rules = 1024
let recovery_ip_kill_s = 0.3
let recovery_pf_kill_s = 2.0
let recovery_send_s = 2.4
let recovery_drain_s = 0.2

let recovery_ruleset ~seed =
  Pf_engine.generate_ruleset (Rng.create (seed + 1)) ~n:recovery_rules ~protect_port:bulk_port

let build_recovery ~seed =
  let rng = Rng.create seed in
  (* The kills land at a seed-drawn point of the flow's life. *)
  let jitter () = Time.of_micros (Rng.float rng 10_000.0) in
  let t_ip = Time.of_seconds recovery_ip_kill_s + jitter () in
  let t_pf = Time.of_seconds recovery_pf_kill_s + jitter () in
  let config = { Host.default_config with Host.seed; pf_rules = recovery_ruleset ~seed } in
  let h = Host.create ~config () in
  let engine = Host.engine h in
  let until = Time.of_seconds recovery_send_s in
  let sink = Host.sink h 0 in
  (* The longest receiver-side gap in delivered bytes that ends before
     the IP kill, between the kills, and after the PF kill. *)
  let gaps = [| 0; 0; 0 |] in
  let received = ref 0 and in_window = ref 0 and last = ref 0 in
  Sink.sink_tcp sink ~port:bulk_port ~on_bytes:(fun ~at n ->
      received := !received + n;
      if at <= until then in_window := !in_window + n;
      let w = if at < t_ip then 0 else if at < t_pf then 1 else 2 in
      gaps.(w) <- max gaps.(w) (at - !last);
      last := at);
  let iperf =
    Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~port:bulk_port ~until ()
  in
  let back = Hashtbl.create 4 in
  Host.on_reincarnated h (fun comp ->
      Hashtbl.replace back (Component.name comp) (Engine.now engine));
  Host.at h t_ip (fun () -> Host.kill_component h Host.C_ip);
  Host.at h t_pf (fun () -> Host.kill_component h Host.C_pf);
  let finish () =
    let tcp_srv = Host.tcp_srv h in
    let segs = Tcp_srv.total_segs_out tcp_srv and units = !received / 1460 in
    let lost = max 0 (Apps.Iperf.bytes_sent iperf - !received) in
    let csum = Sink.checksum_failures sink in
    let recovered name kill =
      match Hashtbl.find_opt back name with Some t -> Time.to_millis (t - kill) | None -> 0.0
    in
    let ip_outage = Time.to_millis gaps.(1) and pf_outage = Time.to_millis gaps.(2) in
    let ip_restarts = Host.restarts_of h Host.C_ip and pf_restarts = Host.restarts_of h Host.C_pf in
    let pf = Host.pf_srv h in
    {
      values =
        [
          ("goodput_mbps", fi !in_window *. 8.0 /. recovery_send_s /. 1e6);
          (* The user-visible delay of a crash is its outage. *)
          ("delay_mean_us", (ip_outage +. pf_outage) /. 2.0 *. 1e3);
          ("delay_tail_us", Float.max ip_outage pf_outage *. 1e3);
          ("ip_outage_ms", ip_outage);
          ("pf_outage_ms", pf_outage);
          ("rs.ip_recovered_ms", recovered "ip" t_ip);
          ("rs.pf_recovered_ms", recovered "pf" t_pf);
          ("rs.restarts", fi (Reincarnation.restarts (Host.rs h)));
          ("recovery.ip_residual_ms", ip_outage -. recovered "ip" t_ip);
          ("tcp.retransmits", fi (Tcp.stats (Tcp_srv.engine tcp_srv)).Tcp.retransmits);
          ("tcp.dup_segs_in", fi (Tcp.stats (Sink.tcp sink)).Tcp.dup_segs_in);
          ("tcp.segs_out", fi segs);
          ("pf.verdicts_per_seg", ratio (Pf_srv.verdicts_issued pf) units);
          ("pf.conntrack_entries", fi (Conntrack.size (Pf_engine.conntrack (Pf_srv.engine_of pf))));
          ("pf.evictions", fi (Pf_srv.evicted_half_open pf + Pf_srv.evicted_established pf));
        ]
        @ cpu_metrics (Host.components h) ~units ~window:(Engine.now engine);
      units;
      attempted = segs;
      failed = segments lost + csum;
      violations =
        checks
          [
            (csum > 0, Printf.sprintf "%d checksum failures at the sink" csum);
            (lost > 0, Printf.sprintf "%d bulk bytes undelivered after drain" lost);
            ( ip_restarts <> 1 || pf_restarts <> 1,
              Printf.sprintf "expected one IP and one PF restart, saw %d and %d" ip_restarts
                pf_restarts );
          ];
    }
  in
  { engine; span = until + Time.of_seconds recovery_drain_s; finish }

let recovery =
  {
    build = build_recovery;
    pf_packets = (fun ~seed -> (recovery_ruleset ~seed, bulk_packets ~flows:1 ~dport:bulk_port));
  }

(* {1 Running a simulated workload} *)

type rep = {
  setup : float;
  wall : float;
  events : int;
  alloc_words : float;
  major_gcs : int;
  outcome : outcome;
}

let allocated (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* Step the engine to the end of the span, counting events (the
   sentinel that ends the span included). *)
let drive w =
  let stop = ref false in
  ignore (Engine.schedule_at w.engine w.span (fun () -> stop := true) : Engine.handle);
  let n = ref 0 in
  while (not !stop) && Engine.step w.engine do
    incr n
  done;
  !n

(* A full major collection (not a compaction, which would hand the heap
   back to the system and make the next set-up pay page faults) before
   every repetition. Set-up is timed only in the heap a drive left:
   worlds built back to back, with no drive in between, got slower one
   after another, up to twofold. *)
let run_rep wl ~seed =
  Gc.full_major ();
  let w, setup, k_setup = timed (fun () -> wl.build ~seed) in
  let (events, g0, g1), wall, k_wall =
    timed (fun () ->
        let g0 = Gc.quick_stat () in
        let events = drive w in
        (events, g0, Gc.quick_stat ()))
  in
  {
    setup = setup *. k_setup;
    wall = wall *. k_wall;
    events;
    alloc_words = allocated g1 -. allocated g0;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    outcome = w.finish ();
  }

let fingerprint r =
  String.concat ";"
    (Printf.sprintf "events=%d;attempted=%d;failed=%d" r.events r.outcome.attempted
       r.outcome.failed
    :: List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) r.outcome.values)

(* The simulated metrics of every repetition (traced or not) must be
   bit-identical to the first one's. *)
let determinism = function
  | [] -> []
  | first :: rest ->
      let f = fingerprint first in
      checks
        [
          ( List.exists (fun r -> fingerprint r <> f) rest,
            "simulated metrics differ between runs of the same seed" );
        ]

type report = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  violations : string list;
}

let sim_end_to_end wl ~seed ~seconds =
  let start = clock () in
  let rec loop acc =
    let acc = run_rep wl ~seed :: acc in
    if clock () -. start < seconds || List.length acc < 2 then loop acc else List.rev acc
  in
  let reps = loop [] in
  let first = List.hd reps in
  let heap = heap_peak_mb () in
  {
    metrics =
      [
        ("setup_s", median (List.map (fun r -> r.setup) reps));
        ("wall_s", median (List.map (fun r -> r.wall) reps));
        ("heap_peak_mb", heap);
      ]
      @ first.outcome.values;
    attempted = first.outcome.attempted;
    failed = first.outcome.failed;
    violations = first.outcome.violations @ determinism reps;
  }

(* {2 The traced run}

   A counting listener on the channel hook chain attributes every
   hand-off, protocol message, pool allocation and request-database
   submission to the role of the server that made it. *)

type counts = {
  by_role : (string, int array) Hashtbl.t;  (** handoffs, msgs, allocs, submits *)
  mutable aborts : int;
  mutable stale : int;
  mutable dropped : int;
}

let new_counts () = { by_role = Hashtbl.create 8; aborts = 0; stale = 0; dropped = 0 }

let count c ~actor ev =
  let bump i =
    let role = match actor with Some a -> role_of a | None -> "-" in
    let a =
      match Hashtbl.find_opt c.by_role role with
      | Some a -> a
      | None ->
          let a = Array.make 4 0 in
          Hashtbl.add c.by_role role a;
          a
    in
    a.(i) <- a.(i) + 1
  in
  match (ev : Hook.event) with
  | Hook.Chan_handoff _ -> bump 0
  | Hook.Msg_req { way = `Sent; _ } | Hook.Msg_conf { way = `Sent; _ } -> bump 1
  | Hook.Pool_alloc _ -> bump 2
  | Hook.Req_submit _ -> bump 3
  | Hook.Req_abort _ -> c.aborts <- c.aborts + 1
  | Hook.Req_confirm { known = false; _ } -> c.stale <- c.stale + 1
  | Hook.Chan_dropped _ -> c.dropped <- c.dropped + 1
  | _ -> ()

let traced_rep wl ~seed c =
  let token = Hook.add (count c) in
  Fun.protect ~finally:(fun () -> Hook.remove token) (fun () -> run_rep wl ~seed)

(* Cost of one call into a layer, timed from outside, in reference ns. *)
let ns_per n f =
  let (), dt, k =
    timed (fun () ->
        for i = 1 to n do
          f i
        done)
  in
  dt *. k *. 1e9 /. fi n

let event_ns () =
  let e = Engine.create () in
  let rng = Rng.create 1 in
  for _ = 1 to 1024 do
    ignore (Engine.schedule e (Rng.int rng 10_000) ignore : Engine.handle)
  done;
  ns_per 200_000 (fun _ ->
      ignore (Engine.step e : bool);
      ignore (Engine.schedule e (1 + Rng.int rng 10_000) ignore : Engine.handle))

let chan_ns () =
  let c = Sim_chan.create ~id:(-1) () in
  ns_per 200_000 (fun i ->
      ignore (Sim_chan.send c i : bool);
      ignore (Sim_chan.recv c : int option))

let pool_ns () =
  let p = Pool.create ~id:(Pool.fresh_id ()) ~slots:64 ~slot_size:2048 in
  ns_per 200_000 (fun _ -> Pool.free p (Pool.alloc p ~len:1460))

let reqdb_ns () =
  let db = Request_db.create () in
  ns_per 200_000 (fun _ ->
      let id = Request_db.submit db ~peer:1 ~payload:() ~abort:(fun _ () -> ()) in
      ignore (Request_db.complete db id : unit option))

(* A data segment built by the sender and checksum-verified by the
   receiver: the per-segment protocol work the two ends of the wire
   do. *)
let segment_ns () =
  let src = Addr.Ipv4.v 10 0 0 1 and dst = Addr.Ipv4.v 10 0 0 2 in
  let payload = Bytes.make 1460 'p' in
  let hdr =
    {
      Tcp_wire.src_port = 40_000;
      dst_port = bulk_port;
      seq = 1;
      ack = 1;
      flags = Tcp_wire.flag_ack;
      window = 65535;
      mss = None;
      wscale = None;
    }
  in
  ns_per 50_000 (fun _ ->
      let seg = Tcp_wire.encode ~src ~dst hdr ~payload in
      ignore (Tcp_wire.decode ~src ~dst seg : (Tcp_wire.header * Bytes.t) option))

let filter_ns wl ~seed =
  let rules, packet = wl.pf_packets ~seed in
  let pf = Pf_engine.create ~rules () in
  ns_per 200_000 (fun i -> ignore (Pf_engine.filter pf ~now:i (packet i) : Pf_engine.verdict))

let sim_per_layer wl ~seed ~seconds =
  let start = clock () in
  let c = new_counts () in
  let rec loop plain traced =
    let plain = run_rep wl ~seed :: plain in
    let counts = match traced with [] -> c | _ -> new_counts () in
    let traced = traced_rep wl ~seed counts :: traced in
    if clock () -. start < seconds then loop plain traced else (List.rev plain, List.rev traced)
  in
  let plain, traced = loop [] [] in
  let first = List.hd plain in
  let o = first.outcome in
  let units = o.units in
  let wall = median (List.map (fun r -> r.wall) plain) in
  let role_count role i = match Hashtbl.find_opt c.by_role role with Some a -> a.(i) | None -> 0 in
  let total i = Hashtbl.fold (fun _ a acc -> acc + a.(i)) c.by_role 0 in
  (* Wall time per unit, and the share of it explained by each layer:
     a call's cost timed from outside times the traced call count. *)
  let us_per_unit ns calls = if units > 0 then ns *. calls /. 1e3 /. fi units else 0.0 in
  let w_total = us_per_unit 1e9 wall in
  let w_sim = us_per_unit (event_ns ()) (fi first.events) in
  let w_chan =
    us_per_unit (chan_ns ()) (fi (total 0 + total 1))
    +. us_per_unit (pool_ns ()) (fi (total 2))
    +. us_per_unit (reqdb_ns ()) (fi (total 3))
  in
  let pf_ns = filter_ns wl ~seed in
  let w_pf = us_per_unit pf_ns (lookup o.values "pf.verdicts_per_seg" *. fi units) in
  let w_net = us_per_unit (segment_ns ()) (lookup o.values "tcp.segs_out") in
  {
    metrics =
      [
        ("sim.events", fi first.events);
        ("sim.events_per_s", fi first.events /. wall);
        ("sim.alloc_words_per_event", first.alloc_words /. fi first.events);
        ("sim.major_gcs", fi first.major_gcs);
        ("reqdb.aborts", fi c.aborts);
        ("reqdb.stale_confirms", fi c.stale);
        ("chan.dropped", fi c.dropped);
        ("pf.filter_ns", pf_ns);
        ("wall.us_per_seg", w_total);
        ("wall.sim.us_per_seg", w_sim);
        ("wall.channels.us_per_seg", w_chan);
        ("wall.pf.us_per_seg", w_pf);
        ("wall.net.us_per_seg", w_net);
        ("wall.unattributed.us_per_seg", w_total -. w_sim -. w_chan -. w_pf -. w_net);
        ("trace.overhead", median (List.map (fun r -> r.wall) traced) /. wall);
        ("fail_ratio", ratio o.failed o.attempted);
      ]
      @ List.concat_map
          (fun r ->
            [
              (Printf.sprintf "chan.%s.handoffs" r, ratio (role_count r 0) units);
              (Printf.sprintf "chan.%s.msgs" r, ratio (role_count r 1) units);
              (Printf.sprintf "pool.%s.allocs" r, ratio (role_count r 2) units);
              (Printf.sprintf "reqdb.%s.submits" r, ratio (role_count r 3) units);
            ])
          roles
      @ o.values;
    attempted = o.attempted;
    failed = o.failed;
    violations = o.violations @ determinism (plain @ traced);
  }

(* {1 The native runtime, measured in bulk's traced run}

   [Native.run] runs the split stack on two real domains with iperf
   bulk and an ICMP echo every millisecond: the only place where
   [Loop] park/wake, real [Spsc_queue] rings and pool locks cost real
   time. Its goodput and latencies hinge on how the shared host
   schedules two domains: a one-second window's goodput varies up to
   twofold from one window to the next and drifts with the host over
   minutes, which no calibration on one core tracks. They are too
   unsteady to bound, so the runtime is a layer of the bulk data path
   here, and its counters are medians over windows. *)

let native_window_s = 1.0

(* [Native.run] keeps draining this long after its window. *)
let native_grace_s = 0.25

let native_config ~seed =
  { Native.default_config with Native.domains = 2; seconds = native_window_s; seed; ping_period = 0.001 }

(* Frames without an RX buffer and echo replies still in flight when
   the domains stop are losses TCP and ICMP tolerate, and their number
   depends on how the host schedules the domains: they count as failed
   operations. Ring drops, corrupted segments and a stalled bulk flow
   are wrong output. *)
let native_gate (r : Native.result) =
  let drops = sum (fun (g : Native.ring_stat) -> g.Native.dropped) r.Native.rings in
  let unanswered = max 0 (r.Native.icmp_echoes - r.Native.ping_count) in
  ( r.Native.frames_to_peer + r.Native.ping_count,
    drops + r.Native.rx_no_buffer + r.Native.checksum_failures + unanswered,
    checks
      [
        (drops > 0, Printf.sprintf "%d ring drops" drops);
        ( r.Native.checksum_failures > 0,
          Printf.sprintf "%d checksum failures" r.Native.checksum_failures );
        (r.Native.tcp_bytes = 0, "no bulk bytes delivered");
      ] )

let native_windows ~seed ~seconds =
  let start = clock () in
  let rec loop acc =
    match acc with
    | _ :: _ when clock () -. start +. native_window_s +. native_grace_s > seconds -> List.rev acc
    | _ -> loop (Native.run (native_config ~seed) :: acc)
  in
  loop []

let spsc_cross_domain_ns ~n =
  let q = Spsc.create ~capacity:4096 () in
  let backoff tries = if tries < 200 then Domain.cpu_relax () else Unix.sleepf 5e-5 in
  let t0 = clock () in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 and tries = ref 0 in
        while !i < n do
          if Spsc.try_push q !i then begin
            incr i;
            tries := 0
          end
          else begin
            backoff !tries;
            incr tries
          end
        done)
  in
  let got = ref 0 and tries = ref 0 in
  while !got < n do
    match Spsc.try_pop q with
    | Some _ ->
        incr got;
        tries := 0
    | None ->
        backoff !tries;
        incr tries
  done;
  Domain.join producer;
  (clock () -. t0) *. 1e9 /. fi n

let native_layer_values (r : Native.result) =
  let s = r.Native.seconds_run in
  let loops = r.Native.loops in
  let rate f = fi (sum f loops) /. s in
  let loop_rate i f = match List.nth_opt loops i with Some l -> fi (f l) /. s | None -> 0.0 in
  let frames = r.Native.frames_to_peer in
  [
    ("loop.parks_per_s", rate (fun l -> l.Loop.parks));
    ("loop.wakes_per_s", rate (fun l -> l.Loop.wakes));
    ("loop.posts_remote_per_s", rate (fun l -> l.Loop.posts_remote));
    ("loop.executed_per_s", rate (fun l -> l.Loop.executed));
    ("loop0.parks_per_s", loop_rate 0 (fun l -> l.Loop.parks));
    ("loop0.executed_per_s", loop_rate 0 (fun l -> l.Loop.executed));
    ("loop1.parks_per_s", loop_rate 1 (fun l -> l.Loop.parks));
    ("loop1.executed_per_s", loop_rate 1 (fun l -> l.Loop.executed));
    ( "ring.max_occupancy",
      fi
        (List.fold_left
           (fun acc (g : Native.ring_stat) -> max acc g.Native.max_occupancy)
           0 r.Native.rings) );
    ("ring.sent_per_frame", ratio (sum (fun (g : Native.ring_stat) -> g.Native.sent) r.Native.rings) frames);
    ("native.frames_per_s", fi frames /. s);
    ("native.rx_no_buffer", fi r.Native.rx_no_buffer);
  ]

(* [r], bulk's traced report, with the runtime's counters added and
   its windows' operations counted in. *)
let with_runtime ~seed ~seconds r =
  let windows = native_windows ~seed ~seconds in
  let attempted, failed, violations =
    List.fold_left
      (fun (a, f, v) w ->
        let a', f', v' = native_gate w in
        (a + a', f + f', v @ v'))
      (r.attempted, r.failed, r.violations)
      windows
  in
  let per_window = List.map native_layer_values windows in
  {
    metrics =
      List.map
        (fun (name, _) -> (name, median (List.map (fun v -> lookup v name) per_window)))
        (List.hd per_window)
      @ [
          ("spsc.cross_domain_ns_per_msg", spsc_cross_domain_ns ~n:500_000);
          ("fail_ratio", ratio failed attempted);
        ]
      @ List.filter (fun (name, _) -> name <> "fail_ratio") r.metrics;
    attempted;
    failed;
    violations;
  }

(* {1 Output} *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_gap_table values =
  print_endline "stage   simulated cycles/seg   Capacity model cycles/seg      gap";
  List.iter
    (fun r ->
      let model = lookup values (Printf.sprintf "capacity.%s.cycles_per_seg" r) in
      if model > 0.0 then
        Printf.printf "%-7s %22.0f %27.0f %8.3f\n" r
          (lookup values (Printf.sprintf "cpu.%s.cycles_per_seg" r))
          model
          (lookup values (Printf.sprintf "gap.%s" r)))
    roles

let print_report ~workload ~trace r =
  let catalog = if trace then per_layer else end_to_end in
  let fp = Lazy.force model_fingerprint in
  let values = r.metrics @ [ ("model.fingerprint", fingerprint_value fp) ] in
  Printf.printf "workload %s, %s run, cost model %s\n" workload
    (if trace then "traced" else "untraced")
    fp;
  List.iter
    (fun (name, unit_) -> Printf.printf "  %-32s %18.6g %s\n" name (lookup values name) unit_)
    catalog;
  if trace && workload = "bulk" then print_gap_table values;
  List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n%!" v) r.violations;
  let correct = r.violations = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number (lookup values name))
              unit_)
          catalog));
  if not correct then exit 1

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload bulk|churn|recovery --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      let sim wl = if trace then sim_per_layer wl ~seed ~seconds else sim_end_to_end wl ~seed ~seconds in
      let report =
        match workload with
        | "bulk" when trace ->
            (* Two thirds of the traced run simulate, one third runs the
               native runtime. *)
            with_runtime ~seed ~seconds:(seconds /. 3.0)
              (sim_per_layer bulk ~seed ~seconds:(seconds *. 2.0 /. 3.0))
        | "bulk" -> sim bulk
        | "churn" -> sim churn
        | "recovery" -> sim recovery
        | _ -> usage ()
      in
      print_report ~workload ~trace report
  | _ -> usage ()
