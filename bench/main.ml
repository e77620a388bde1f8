(* The benchmark harness.

   Two halves:

   1. Bechamel microbenchmarks of the real data structures behind the
      paper's micro-claims (Section IV): the lock-free SPSC channel
      enqueue (paper: ~30 cycles between cores, vs ~150/3000 for a
      SYSCALL), the wire codecs, pools and the request database. These
      run natively on this machine, so absolute numbers differ from the
      1.9 GHz Opteron; the point is the relative cheapness of the
      channel operations.

   2. The evaluation harness: regenerates every table and figure of the
      paper (Table II, Table III, Table IV, Figure 4, Figure 5, the
      driver-coalescing claim of Section VI-A) from the simulator and
      prints paper-vs-measured, plus an ablation of the design choices.

   Run everything: dune exec bench/main.exe
   One piece:      dune exec bench/main.exe -- [micro|table2|campaign|fig4|fig5|coalesce|ablate|scaling|churn|profile] *)

module E = Newt_core.Experiments
module V = Newt_verify
module C = Newt_stack.Capacity
module Costs = Newt_hw.Costs
module Spsc = Newt_channels.Spsc_queue
module Pool = Newt_channels.Pool
module Request_db = Newt_channels.Request_db
module Checksum = Newt_net.Checksum
module Tcp_wire = Newt_net.Tcp_wire
module Addr = Newt_net.Addr
module Eventq = Newt_sim.Eventq
module Json = Newt_sim.Json

let print_json v = print_endline (Json.to_string v)

(* {1 Bechamel micro suite} *)

let test_spsc_ping_pong =
  (* Uncontended push+pop pair on the ring — the mechanism whose
     enqueue the paper measures at ~30 cycles. *)
  let q = Spsc.create ~capacity:1024 () in
  Bechamel.Test.make ~name:"spsc push+pop (same domain)"
    (Bechamel.Staged.stage (fun () ->
         ignore (Spsc.try_push q 1);
         ignore (Spsc.try_pop q)))

let test_spsc_batch =
  let q = Spsc.create ~capacity:1024 () in
  Bechamel.Test.make ~name:"spsc 512-batch enqueue/drain"
    (Bechamel.Staged.stage (fun () ->
         for i = 0 to 511 do
           ignore (Spsc.try_push q i)
         done;
         let rec drain () = match Spsc.try_pop q with Some _ -> drain () | None -> () in
         drain ()))

let test_checksum =
  let b = Bytes.make 1460 'x' in
  Bechamel.Test.make ~name:"internet checksum 1460B (sw, no offload)"
    (Bechamel.Staged.stage (fun () -> ignore (Checksum.bytes b ~off:0 ~len:1460)))

let test_tcp_encode =
  let src = Addr.Ipv4.v 10 0 0 1 and dst = Addr.Ipv4.v 10 0 0 2 in
  let payload = Bytes.make 1460 'p' in
  let hdr =
    {
      Tcp_wire.src_port = 5001;
      dst_port = 80;
      seq = 12345;
      ack = 999;
      flags = Tcp_wire.flag_ack;
      window = 65535;
      mss = None;
      wscale = None;
    }
  in
  Bechamel.Test.make ~name:"tcp segment encode 1460B (full csum)"
    (Bechamel.Staged.stage (fun () ->
         ignore (Tcp_wire.encode ~src ~dst hdr ~payload)))

let test_pool_cycle =
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:64 ~slot_size:2048 in
  Bechamel.Test.make ~name:"pool alloc+free (zero-copy chunk)"
    (Bechamel.Staged.stage (fun () ->
         let p = Pool.alloc pool ~len:1460 in
         Pool.free pool p))

let test_request_db =
  let db = Request_db.create () in
  Bechamel.Test.make ~name:"request db submit+complete"
    (Bechamel.Staged.stage (fun () ->
         let id = Request_db.submit db ~peer:1 ~payload:() ~abort:(fun _ () -> ()) in
         ignore (Request_db.complete db id)))

let test_eventq =
  let q = Eventq.create ~dummy:() () in
  let t = ref 0 in
  Bechamel.Test.make ~name:"event queue push+pop"
    (Bechamel.Staged.stage (fun () ->
         incr t;
         ignore (Eventq.push q !t () : unit Eventq.entry);
         Eventq.pop q))

let test_tso_split =
  let frame =
    let seg =
      Tcp_wire.encode ~src:(Addr.Ipv4.v 10 0 0 1) ~dst:(Addr.Ipv4.v 10 0 0 2)
        ~partial_csum:true
        {
          Tcp_wire.src_port = 1;
          dst_port = 2;
          seq = 0;
          ack = 0;
          flags = Tcp_wire.flag_ack;
          window = 1000;
          mss = None;
          wscale = None;
        }
        ~payload:(Bytes.make 64000 't')
    in
    let pkt =
      Newt_net.Ipv4.packet
        {
          Newt_net.Ipv4.src = Addr.Ipv4.v 10 0 0 1;
          dst = Addr.Ipv4.v 10 0 0 2;
          protocol = Newt_net.Ipv4.Tcp;
          ttl = 64;
          ident = 0;
          total_len = 0;
        }
        ~payload:seg
    in
    Newt_net.Ethernet.frame
      {
        Newt_net.Ethernet.dst = Addr.Mac.of_index 2;
        src = Addr.Mac.of_index 1;
        ethertype = Newt_net.Ethernet.Ipv4;
      }
      ~payload:pkt
  in
  Bechamel.Test.make ~name:"NIC TSO split 64KB -> 44 wire frames"
    (Bechamel.Staged.stage (fun () ->
         ignore (Newt_nic.Offload.tso_split frame ~mss:1460)))

let test_dns_codec =
  let q = Newt_net.Dns.encode (Newt_net.Dns.query ~id:7 "www.vu.nl") in
  Bechamel.Test.make ~name:"dns query decode+answer encode"
    (Bechamel.Staged.stage (fun () ->
         match Newt_net.Dns.decode q with
         | Some m ->
             ignore
               (Newt_net.Dns.encode
                  (Newt_net.Dns.response ~query:m (Some (Addr.Ipv4.v 10 0 0 2))))
         | None -> assert false))

let test_pf_1024 =
  let rules =
    Newt_pf.Pf_engine.generate_ruleset (Newt_sim.Rng.create 7) ~n:1024
      ~protect_port:5001
  in
  let engine = Newt_pf.Pf_engine.create ~rules () in
  let miss_packet =
    (* No conntrack entry, walks deep into the ruleset. *)
    {
      Newt_pf.Rule.dir = `Out;
      proto = `Tcp;
      src_ip = Addr.Ipv4.v 10 0 0 1;
      dst_ip = Addr.Ipv4.v 10 0 0 2;
      src_port = 40000;
      dst_port = 5001;
    }
  in
  Bechamel.Test.make ~name:"pf verdict, 1024 rules (state miss)"
    (Bechamel.Staged.stage (fun () ->
         Newt_pf.Conntrack.clear (Newt_pf.Pf_engine.conntrack engine);
         ignore (Newt_pf.Pf_engine.filter engine ~now:0 miss_packet)))

let test_capacity_model =
  Bechamel.Test.make ~name:"table II capacity model (all 7 configs)"
    (Bechamel.Staged.stage (fun () ->
         List.iter (fun c -> ignore (C.evaluate c)) C.all))

(* Cross-domain throughput needs its own two-domain harness: one real
   producer domain, one real consumer domain, a single SPSC ring
   between them.  On an oversubscribed (1-core) machine the domains
   time-slice; a short sleep when the ring is persistently full or
   empty keeps the OS scheduler moving instead of burning the whole
   quantum in cpu_relax. *)
let spsc_capacity = 4096

let measure_spsc_cross_domain ~n () =
  let q = Spsc.create ~capacity:spsc_capacity () in
  let backoff tries =
    if tries < 200 then Domain.cpu_relax () else Unix.sleepf 5e-5
  in
  let t0 = Unix.gettimeofday () in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        let tries = ref 0 in
        while !i < n do
          if Spsc.try_push q !i then (
            incr i;
            tries := 0)
          else (
            backoff !tries;
            incr tries)
        done)
  in
  let got = ref 0 in
  let tries = ref 0 in
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
  let dt = Unix.gettimeofday () -. t0 in
  let ns_per_msg = dt /. float_of_int n *. 1e9 in
  let m_msg_per_s = float_of_int n /. dt /. 1e6 in
  (ns_per_msg, m_msg_per_s)

let print_spsc_cross_domain ?(n = 2_000_000) () =
  let ns_per_msg, m_msg_per_s = measure_spsc_cross_domain ~n () in
  Printf.printf "%-45s %10.1f ns/msg (%.1f M msg/s, 2 domains)\n"
    "spsc cross-domain transfer" ns_per_msg m_msg_per_s;
  Printf.printf
    "(paper's point of comparison: ~30 cycles/enqueue vs 150 hot / 3000 cold per SYSCALL trap)\n";
  print_json
    (Obj
       [ ( "spsc_cross_domain",
           Obj
             [ ("messages", Int n); ("capacity", Int spsc_capacity);
               ("domains", Int 2); ("ns_per_msg", Fixed (1, ns_per_msg));
               ("m_msg_per_s", Fixed (2, m_msg_per_s)) ] ) ]);
  print_newline ()

let run_bechamel () =
  print_endline "Microbenchmarks (Section IV: channels vs kernel IPC)";
  print_endline "====================================================";
  let benchmark test =
    let open Bechamel in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-45s %10.1f ns/op\n%!" name est
        | _ -> Printf.printf "%-45s (no estimate)\n%!" name)
      results
  in
  List.iter
    (fun t -> benchmark t)
    [
      test_spsc_ping_pong;
      test_spsc_batch;
      test_checksum;
      test_tcp_encode;
      test_pool_cycle;
      test_request_db;
      test_eventq;
      test_tso_split;
      test_dns_codec;
      test_pf_1024;
      test_capacity_model;
    ];
  print_spsc_cross_domain ()

(* {1 The evaluation harness} *)

let print_table2 () =
  print_endline "Table II — peak performance of outgoing TCP in various setups";
  print_endline "===============================================================";
  Printf.printf "%-62s %7s %9s\n" "configuration" "paper" "measured";
  List.iter
    (fun (r : E.table2_row) ->
      Printf.printf "%-62s %7s %6.2f Gbps   [bottleneck: %s]\n" r.E.label r.E.paper_gbps
        r.E.measured_gbps r.E.bottleneck)
    (E.table_ii ());
  print_newline ()

let sparkline points =
  Array.iter
    (fun (time, mbps) ->
      if int_of_float (time *. 10.0) mod 5 = 0 then
        Printf.printf "%6.1fs %8.1f Mbps |%s\n" time mbps
          (String.make (int_of_float (mbps /. 25.0)) '#'))
    points

let print_fig4 () =
  print_endline "Figure 4 — IP crash (paper: ~2s gap, one retransmission, full recovery)";
  print_endline "=========================================================================";
  let t = E.figure_ip_crash () in
  sparkline t.E.points;
  Printf.printf
    "receiver duplicates: %d; sender retransmits: %d; lost segments: %d; ip restarts: %d\n\n"
    t.E.duplicate_segments t.E.sender_retransmits t.E.lost_segments t.E.component_restarts

let print_fig5 () =
  print_endline
    "Figure 5 — PF crashes (paper: almost invisible, no loss, 1024 rules recovered)";
  print_endline "================================================================================";
  let t = E.figure_pf_crash () in
  sparkline t.E.points;
  Printf.printf
    "receiver duplicates: %d; sender retransmits: %d; lost segments: %d; pf restarts: %d\n\n"
    t.E.duplicate_segments t.E.sender_retransmits t.E.lost_segments t.E.component_restarts

(* Run [f] under the sanitizer and the channel-protocol checker with a
   continuous-verification aggregator, then emit the counter block as
   one JSON line and fail on any violation or leak.  The aggregator's
   per-run accounting folds the protocol counters into the same
   block. *)
let with_verify f =
  V.Sanitizer.install ();
  V.Protocol.install ();
  let v = V.Continuous.create () in
  Fun.protect
    ~finally:(fun () ->
      V.Protocol.uninstall ();
      V.Sanitizer.uninstall ())
    (fun () -> f v);
  print_json (Obj (V.Continuous.json v));
  print_newline ();
  if not (V.Continuous.ok v) then exit 1

let print_campaign () =
  print_endline "Tables III and IV — fault-injection campaign (100 runs)";
  print_endline "=========================================================";
  with_verify @@ fun verify ->
  let c = E.fault_campaign ~verify () in
  Printf.printf "Table III %24s %6s %6s\n" "" "paper" "ours";
  List.iter
    (fun (name, paper, ours) -> Printf.printf "  %-30s %6d %6d\n" name paper ours)
    [
      ("Total", 100, List.length c.E.runs);
      ("TCP", 25, c.E.crashes_tcp);
      ("UDP", 10, c.E.crashes_udp);
      ("IP", 24, c.E.crashes_ip);
      ("PF", 25, c.E.crashes_pf);
      ("Driver", 16, c.E.crashes_drv);
    ];
  Printf.printf "Table IV %37s %6s %6s\n" "" "paper" "ours";
  List.iter
    (fun (name, paper, ours) -> Printf.printf "  %-42s %6s %6s\n" name paper ours)
    [
      ("Fully transparent crashes", "70", string_of_int c.E.fully_transparent);
      ( "Reachable from outside (+ manually fixed)",
        "90+6",
        Printf.sprintf "%d+%d" c.E.reachable c.E.manually_fixed );
      ("Crash broke TCP connections", "30", string_of_int c.E.broke_tcp);
      ("Transparent to UDP", "95", string_of_int c.E.transparent_udp);
      ("Reboot necessary", "3", string_of_int c.E.reboots);
    ];
  print_newline ()

let print_coalesce () =
  print_endline "Driver coalescing (Section VI-A)";
  print_endline "=================================";
  List.iter
    (fun (r : E.coalescing_result) ->
      Printf.printf "%d driver(s): busiest driver core %4.1f%% utilized at full 5-NIC TSO rate -> %s\n"
        r.E.drivers
        (100.0 *. r.E.driver_core_utilization)
        (if r.E.sustainable then "OK" else "overloaded"))
    (E.driver_coalescing ());
  (* And at packet level: all five drivers timeshare one core. *)
  let normal = E.split_peak_event_sim ~duration:0.5 () in
  let coalesced = E.split_peak_event_sim ~duration:0.5 ~coalesce_drivers:true () in
  Printf.printf
    "packet level: separate driver cores %.2f Gbps vs one shared driver core %.2f      Gbps (drv core %.0f%%)\n"
    normal.E.goodput_gbps coalesced.E.goodput_gbps
    (100. *. coalesced.E.drv_util);
  print_endline
    "(\"coalescing the drivers into one still does not lead to an overload\")";
  print_newline ()

let print_crosscheck () =
  print_endline "Cross-validation — packet-level simulation vs capacity model (5 NICs)";
  print_endline "=======================================================================";
  let r = E.split_peak_event_sim () in
  Printf.printf "event simulation:   %.2f Gbps (per link:%s Mbps)\n" r.E.goodput_gbps
    (String.concat ""
       (List.map (fun m -> Printf.sprintf " %.0f" m) r.E.per_link_mbps));
  Printf.printf "capacity model:     %.2f Gbps\n" r.E.capacity_prediction_gbps;
  Printf.printf
    "core utilization:   tcp %.0f%% (the bottleneck)  ip %.0f%%  pf %.0f%%  drv %.0f%%\n"
    (100. *. r.E.tcp_util) (100. *. r.E.ip_util) (100. *. r.E.pf_util)
    (100. *. r.E.drv_util);
  print_endline
    "(the paper's claims hold emergently: TCP saturates first; IP is not the";
  print_endline
    " bottleneck despite triple handling; the drivers' work is extremely small)";
  let single_gbps, single_util = E.single_server_event_sim () in
  Printf.printf
    "\nsingle-server topology, packet level: %.2f Gbps at %.0f%% stack-core \
     utilization\n"
    single_gbps (100. *. single_util);
  Printf.printf
    "(beats the split stack's %.2f Gbps by %.0f%%%% — the paper's line 3 vs line 4 \
     ordering, emergent)\n"
    r.E.goodput_gbps
    (100. *. (single_gbps -. r.E.goodput_gbps) /. r.E.goodput_gbps);
  let m = E.minix_event_sim () in
  Printf.printf
    "\nMinix baseline, packet level: %.0f Mbps (paper: 120); %.0fk sync kernel \
     IPCs/s; lossless: %b\n"
    m.E.minix_mbps
    (m.E.sync_ipcs_per_sec /. 1000.0)
    m.E.minix_lossless;
  print_endline
    "(one timeshared core, cold traps + context switch on every synchronous hop)";
  print_newline ()

let print_ablation () =
  print_endline "Ablation — design choices under the capacity model (split stack + SC)";
  print_endline "=======================================================================";
  let base = Costs.default in
  let eval name costs config =
    let r = C.evaluate ~costs config in
    Printf.printf "%-58s %6.2f Gbps\n" name r.C.goodput_gbps
  in
  eval "baseline (fast-path channels, zero copy, batching)" base C.Split_dedicated_sc;
  eval "channels replaced by kernel IPC (trap per message)"
    {
      base with
      Costs.channel_enqueue = base.Costs.trap_hot + base.Costs.kipc_kernel_work;
      channel_dequeue = base.Costs.trap_hot;
    }
    C.Split_dedicated_sc;
  eval "cold-cache traps on every kernel entry"
    {
      base with
      Costs.channel_enqueue = base.Costs.trap_cold + base.Costs.kipc_kernel_work;
      channel_dequeue = base.Costs.trap_cold;
    }
    C.Split_dedicated_sc;
  eval "zero copy disabled (payload copied at each hop)"
    {
      base with
      (* Two extra 1460-byte copies per segment: transport->IP and
         IP->driver, charged via the per-hop marshal cost. *)
      Costs.channel_marshal = base.Costs.channel_marshal + (2 * Costs.copy_cost base 1460);
    }
    C.Split_dedicated_sc;
  eval "no TX-completion batching (confirm per descriptor)"
    { base with Costs.confirm_batch = 1 }
    C.Single_server_sc;
  eval "TSO on (line 6: wire becomes the bottleneck)" base C.Split_dedicated_sc_tso;
  (let r = C.evaluate ~costs:base ~mss:8960 C.Split_dedicated_sc in
   Printf.printf "%-58s %6.2f Gbps\n"
     "jumbo frames (9000-byte MTU; paper: reduces internal request rate)"
     r.C.goodput_gbps);
  print_newline ();
  print_endline "NIC reset time vs Figure 4 outage (\"restart-aware hardware\", Section V-D):";
  List.iter
    (fun (p : E.reset_sweep_point) ->
      Printf.printf "  device reset %5.2f s -> outage %5.2f s (%d duplicate segments)\n"
        p.E.reset_time_s p.E.outage_s p.E.duplicates)
    (E.nic_reset_sweep ());
  print_newline ();
  print_endline "MWAIT wake-up vs polling (Section IV-B), ICMP RTT through the idle stack:";
  List.iter
    (fun (p : E.latency_point) ->
      Printf.printf
        "  poll window %7.1f us -> mean RTT %5.1f us; OS cores awake %5.2f%% of the \
         time (%d pings)\n"
        p.E.poll_window_us p.E.mean_rtt_us
        (100. *. p.E.awake_fraction)
        p.E.pings)
    (E.mwait_latency_ablation ());
  print_endline
    "  (halting on every idle gap costs several MWAIT wake-ups per round trip;";
  print_endline "   polling absorbs them — the latency/energy trade-off of Section IV-B)";
  print_newline ()

let print_scaling () =
  print_endline "Scaling — N transport shards behind a multi-queue NIC";
  print_endline "======================================================";
  with_verify @@ fun verify ->
  let r = E.scaling_curve ~verify () in
  Printf.printf "single-instance Table II ceiling: %.2f Gbps\n"
    r.E.single_instance_gbps;
  let print_point (p : E.scaling_point) =
    Printf.printf
      "  %d shard(s), %d IP, %d PF: %6.2f Gbps aggregate (%.2fx ceiling); \
       imbalance %.2f; affinity violations %d\n"
      p.E.shards p.E.ip_replicas p.E.pf_shards p.E.goodput_gbps
      (p.E.goodput_gbps /. r.E.single_instance_gbps)
      p.E.imbalance p.E.violations;
    Array.iter
      (fun (s : Newt_scale.Sharded_stack.pf_shard_stats) ->
        Printf.printf "      pf shard %d: %d verdicts, %d tracked, %d expired\n"
          s.Newt_scale.Sharded_stack.pf_shard s.verdicts s.entries s.expired)
      p.E.per_pf_shard
  in
  List.iter print_point r.E.points;
  (* The PF-sharded extension: the filter on the path, conntrack
     partitioned two ways by the same flow hash. *)
  let rpf =
    E.scaling_curve ~shard_counts:[ 8 ] ~ip_replicas:2 ~pf_shards:2 ~verify ()
  in
  List.iter print_point rpf.E.points;
  print_endline
    "(one Shard_map drives NIC RSS, IP fan-out and SYSCALL routing; every flow";
  print_endline
    " stays on one TCP shard — and meets one PF conntrack partition)";
  print_newline ()

(* {1 micro-hook: the native race hook's per-access cost}

   The sampled-instrumentation budget of the race detector: what one
   [Hook.native_access] costs disarmed (the production no-op), armed
   at sample 1 (every access delivered) and armed at sample 256 (the
   location hash and mask test on the skip path), plus one delivered
   sync event. Every access names a distinct location, so sample 256
   keeps about one in 256 of them. The JSON line feeds the race-check
   gate and the overhead table in EXPERIMENTS.md. *)
let print_micro_hook () =
  let module Hook = Newt_channels.Hook in
  let n = 2_000_000 in
  let time_ns f =
    let t0 = Unix.gettimeofday () in
    f n;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  let accesses n =
    for i = 1 to n do
      Hook.native_access Hook.N_counter ~id:1 ~sub:i ~write:true
    done
  in
  let sink = ref 0 in
  let armed sample f =
    Hook.set_sample sample;
    let tok = Hook.native_add (fun _ -> incr sink) in
    Fun.protect ~finally:(fun () -> Hook.remove tok) (fun () -> time_ns f)
  in
  let disarmed = time_ns accesses in
  let every = armed 1 accesses in
  let sampled = armed 256 accesses in
  let seen, kept = Hook.counts Hook.Native in
  let sync =
    armed 1 (fun n ->
        for _ = 1 to n do
          Hook.native_emit (Hook.N_post { loop = 0 })
        done)
  in
  print_endline "micro-hook — native race hook, cost per operation";
  print_endline "=================================================";
  Printf.printf "  access, disarmed:       %6.1f ns\n" disarmed;
  Printf.printf "  access, sample 1:       %6.1f ns (every one delivered)\n"
    every;
  Printf.printf "  access, sample 256:     %6.1f ns (%d of %d delivered)\n"
    sampled kept seen;
  Printf.printf "  sync event, delivered:  %6.1f ns\n" sync;
  print_json
    (Obj
       [ ( "hook_native",
           Obj
             [ ("ns_per_access_disarmed", Fixed (1, disarmed));
               ("ns_per_access_sample1", Fixed (1, every));
               ("ns_per_access_sample256", Fixed (1, sampled));
               ("ns_per_sync_event", Fixed (1, sync)); ("accesses_seen", Int seen);
               ("accesses_kept", Int kept) ] ) ]);
  print_newline ()

let print_churn () =
  let module Ch = Newt_core.Churn in
  print_endline "Churn — short-RPC tail latency through the sharded stack";
  print_endline "=========================================================";
  with_verify @@ fun verify ->
  let results =
    List.map
      (fun scenario -> Ch.run ~scenario ~duration:0.5 ~verify ())
      Ch.all_scenarios
  in
  List.iter
    (fun (r : Ch.result) ->
      Printf.printf
        "  %-18s %6d/%-6d RPCs; connect p99 %8.1f p999 %8.1f µs; request p99 \
         %8.1f p999 %8.1f µs; bulk %5.2f Gbps\n"
        (Ch.scenario_name r.Ch.scenario)
        r.Ch.completed r.Ch.started r.Ch.connect.Ch.p99_us
        r.Ch.connect.Ch.p999_us r.Ch.request.Ch.p99_us r.Ch.request.Ch.p999_us
        r.Ch.bulk_goodput_gbps;
      if r.Ch.flood_syns > 0 || r.Ch.listen_overflows > 0 then
        Printf.printf
        "      overflows %d; conntrack %d entries (%d half-open); evicted %d \
         half-open / %d established; restarts %d\n"
          r.Ch.listen_overflows r.Ch.conntrack_entries r.Ch.conntrack_half_open
          r.Ch.evicted_half_open r.Ch.evicted_established r.Ch.shard_restarts)
    results;
  print_endline
    "(open-loop workers: stack-side queueing shows up in the tail, not as a";
  print_endline " reduced offered rate; percentiles from streaming histograms)";
  print_newline ()

(* {1 profile: where the host CPU of a bulk run goes}

   A call-stack sampler for machines without [perf]: ITIMER_PROF
   delivers SIGPROF every millisecond of process CPU time, and the
   handler records the OCaml call stack it interrupted. A frame's
   share in "frames" is the fraction of samples it appears in at least
   once (inclusive time). "self" charges each sample to its innermost
   OCaml frame only. OCaml takes the signal at its own safe points, so
   time spent in the GC or in C code is charged to the OCaml frame
   that called it, not listed on its own. The run is the benchmark's
   bulk shape: the split Host, five 1 Gbps NICs, one saturating iperf
   per NIC, 0.3 s simulated. This file's own frames (the sampler and
   the driver) are left out. *)
let print_profile () =
  let module Host = Newt_core.Host in
  let module Sink = Newt_stack.Sink in
  let nics = 5 and port = 5001 and until = Newt_sim.Time.of_seconds 0.3 in
  let h = Host.create ~config:{ Host.default_config with Host.nics; app_cores = nics } () in
  for i = 0 to nics - 1 do
    Sink.sink_tcp (Host.sink h i) ~port ~on_bytes:(fun ~at:_ _ -> ());
    ignore
      (Newt_sockets.Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
         ~dst:(Host.sink_addr h i) ~port ~until ())
  done;
  let hits = Hashtbl.create 512 and self = Hashtbl.create 512 and samples = ref 0 in
  let bump tbl f = Hashtbl.replace tbl f (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f)) in
  let frame slot =
    match (Printexc.Slot.name slot, Printexc.Slot.location slot) with
    | Some name, _ -> Some name
    | None, Some l -> Some (Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number)
    | None, None -> None
  in
  let sample _ =
    incr samples;
    let seen = Hashtbl.create 64 in
    let count slot =
      match frame slot with
      | Some f when not (Hashtbl.mem seen f || String.starts_with ~prefix:"Dune__exe" f) ->
          (* Slots run innermost first: the first one kept is self. *)
          if Hashtbl.length seen = 0 then bump self f;
          Hashtbl.replace seen f ();
          bump hits f
      | Some _ | None -> ()
    in
    Option.iter (Array.iter count) (Printexc.backtrace_slots (Printexc.get_callstack 256))
  in
  let timer s =
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = s; it_value = s })
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  timer 0.001;
  Host.run h ~until;
  timer 0.0;
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let top tbl key =
    Hashtbl.fold (fun f n acc -> (f, n) :: acc) tbl []
    |> List.sort (fun (fa, a) (fb, b) -> if a <> b then compare b a else compare fa fb)
    |> List.filteri (fun i _ -> i < 30)
    |> List.map (fun (f, n) ->
           Json.Obj
             [ ("frame", String f);
               (key, Fixed (3, float_of_int n /. float_of_int (max 1 !samples))) ])
  in
  print_json
    (Obj
       [ ( "profile",
           Obj
             [ ("workload", String "bulk"); ("interval_ms", Int 1);
               ("samples", Int !samples); ("frames", List (top hits "inclusive"));
               ("self", List (top self "self")) ] ) ])

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "micro" -> run_bechamel ()
  | "micro-hook" -> print_micro_hook ()
  | "micro-spsc" ->
      (* The cross-domain SPSC measurement alone, sized for CI smoke. *)
      print_spsc_cross_domain ~n:500_000 ()
  | "table2" -> print_table2 ()
  | "campaign" | "table3" | "table4" -> print_campaign ()
  | "fig4" -> print_fig4 ()
  | "fig5" -> print_fig5 ()
  | "coalesce" -> print_coalesce ()
  | "crosscheck" -> print_crosscheck ()
  | "ablate" -> print_ablation ()
  | "scaling" -> print_scaling ()
  | "churn" -> print_churn ()
  | "profile" -> print_profile ()
  | "all" ->
      print_table2 ();
      print_fig4 ();
      print_fig5 ();
      print_campaign ();
      print_crosscheck ();
      print_coalesce ();
      print_ablation ();
      print_scaling ();
      print_churn ();
      run_bechamel ()
  | other ->
      Printf.eprintf
        "unknown benchmark %S (use \
         micro|micro-spsc|micro-hook|table2|campaign|fig4|fig5|coalesce|ablate|scaling|churn|profile|all)\n"
        other;
      exit 1
