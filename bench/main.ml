(* Host microbenchmarks: what the paper's building blocks cost on
   this machine.

   - micro (the default): Bechamel microbenchmarks of the real data
     structures behind the paper's micro-claims (Section IV): the
     lock-free SPSC channel enqueue (paper: ~30 cycles between cores,
     vs ~150/3000 for a SYSCALL), the wire codecs, pools and the
     request database, then a cross-domain SPSC transfer. These run
     natively, so absolute numbers differ from the 1.9 GHz Opteron;
     the point is the relative cheapness of the channel operations.
   - micro-spsc: the cross-domain SPSC transfer alone, sized for CI.
   - micro-hook: the race hook's cost per access.
   - profile: a call-stack profile of a bulk run's host CPU.

   Usage: dune exec bench/main.exe -- [micro|micro-spsc|micro-hook|profile]

   The paper's tables and figures are printed by the simulator CLI,
   one subcommand per experiment: dune exec bin/newtos_sim.exe -- all *)

module C = Newt_stack.Capacity
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

let test_pool_create =
  (* A stack shard's pool: creation allocates nothing per slot. *)
  Bechamel.Test.make ~name:"pool create (8192 slots of 2 KiB)"
    (Bechamel.Staged.stage (fun () ->
         ignore (Pool.create ~id:0 ~slots:8192 ~slot_size:2048)))

let test_pool_ack_cycle =
  (* An ACK-sized chunk: its slot holds 60 bytes of storage, not 2 KiB. *)
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:64 ~slot_size:2048 in
  let ack = Bytes.make 60 'a' in
  Bechamel.Test.make ~name:"pool alloc+write+free 60B"
    (Bechamel.Staged.stage (fun () ->
         let p = Pool.alloc pool ~len:60 in
         Pool.write pool p ~src:ack ~src_off:0;
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

(* The same push+pop with [live] entries already queued, as in a
   running simulation: 200 and 1000 are the recovery and churn
   workloads' mean pending counts, so each sift runs about log2(live)
   levels. *)
let test_eventq_live live =
  let q = Eventq.create ~dummy:() () in
  let clock = ref 0 and rng = ref 1 in
  let later () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !clock + 1 + ((!rng lsr 4) mod (4 * live))
  in
  for _ = 1 to live do
    ignore (Eventq.push q (later ()) () : unit Eventq.entry)
  done;
  Bechamel.Test.make
    ~name:(Printf.sprintf "event queue push+pop (%d live)" live)
    (Bechamel.Staged.stage (fun () ->
         ignore (Eventq.push q (later ()) () : unit Eventq.entry);
         clock := Eventq.min_time q;
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
      test_pool_create;
      test_pool_ack_cycle;
      test_request_db;
      test_eventq;
      test_eventq_live 200;
      test_eventq_live 1000;
      test_tso_split;
      test_dns_codec;
      test_pf_1024;
      test_capacity_model;
    ];
  print_spsc_cross_domain ()

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
   per NIC, 0.3 s simulated. One such span gives a few hundred samples, too
   few to rank the frames below the top ten, so the span is run again,
   on a fresh Host, until the samples reach [min_samples]; only the
   runs are sampled, not the set-ups. This file's own frames (the
   sampler and the loop around the runs) are left out. *)
let min_samples = 2000

let print_profile () =
  let module Host = Newt_core.Host in
  let module Sink = Newt_stack.Sink in
  let nics = 5 and port = 5001 and until = Newt_sim.Time.of_seconds 0.3 in
  let bulk () =
    let h = Host.create ~config:{ Host.default_config with Host.nics; app_cores = nics } () in
    for i = 0 to nics - 1 do
      Sink.sink_tcp (Host.sink h i) ~port ~on_bytes:(fun ~at:_ _ -> ());
      ignore
        (Newt_sockets.Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
           ~dst:(Host.sink_addr h i) ~port ~until ())
    done;
    h
  in
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
  let spans = ref 0 in
  while !samples < min_samples do
    let h = bulk () in
    incr spans;
    timer 0.001;
    Host.run h ~until;
    timer 0.0
  done;
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
             [ ("workload", String "bulk"); ("interval_ms", Int 1); ("spans", Int !spans);
               ("samples", Int !samples); ("frames", List (top hits "inclusive"));
               ("self", List (top self "self")) ] ) ])

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "micro" in
  match what with
  | "micro" -> run_bechamel ()
  | "micro-hook" -> print_micro_hook ()
  | "micro-spsc" ->
      (* The cross-domain SPSC measurement alone, sized for CI smoke. *)
      print_spsc_cross_domain ~n:500_000 ()
  | "profile" -> print_profile ()
  | other ->
      Printf.eprintf
        "unknown benchmark %S (use micro|micro-spsc|micro-hook|profile; the \
         paper's tables and figures are newtos_sim subcommands)\n"
        other;
      exit 1
