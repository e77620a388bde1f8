module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Stats = Newt_sim.Stats
module Tcp = Newt_net.Tcp
module Addr = Newt_net.Addr
module Rule = Newt_pf.Rule
module Sink = Newt_stack.Sink
module Tcp_srv = Newt_stack.Tcp_srv
module Apps = Newt_sockets.Apps
module Socket_api = Newt_sockets.Socket_api
module Tcpfsm = Newt_verify.Tcpfsm
module Pf_srv = Newt_stack.Pf_srv
module Pf_engine = Newt_pf.Pf_engine
module S = Newt_scale.Sharded_stack

type scenario = Baseline | Syn_flood | Crash_during_churn | Listen_pressure

let scenario_name = function
  | Baseline -> "baseline"
  | Syn_flood -> "syn-flood"
  | Crash_during_churn -> "crash-during-churn"
  | Listen_pressure -> "listen-pressure"

let scenario_of_name = function
  | "baseline" -> Some Baseline
  | "syn-flood" | "flood" -> Some Syn_flood
  | "crash-during-churn" | "crash" -> Some Crash_during_churn
  | "listen-pressure" | "listen" -> Some Listen_pressure
  | _ -> None

type tail = {
  samples : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

let tail_of_hist h =
  let q p = Option.value (Stats.Hist.percentile h p) ~default:0.0 in
  {
    samples = Stats.Hist.count h;
    mean_us = Option.value (Stats.Hist.mean h) ~default:0.0;
    p50_us = q 50.0;
    p99_us = q 99.0;
    p999_us = q 99.9;
  }

type result = {
  scenario : scenario;
  offered_rate : float;  (** RPC starts per second the workers aim for. *)
  duration_s : float;
  started : int;
  completed : int;
  rpc_errors : int;
  shed : int;
  completed_rate : float;  (** Completed RPCs per second. *)
  connect : tail;  (** Connect-call → established, µs. *)
  request : tail;  (** Connect-call → echo received, µs. *)
  bulk_goodput_gbps : float;
  listen_overflows : int;
  accepted : int;  (** Listen-pressure: connections the listener took. *)
  client_resets : int;  (** Listen-pressure: client-side refusals. *)
  flood_syns : int;
  conntrack_entries : int;
  conntrack_half_open : int;
  evicted_half_open : int;
  evicted_established : int;
  conns_at_kill : int;  (** Crash: PCBs on the shard the moment it died. *)
  shard_restarts : int;
  steering_violations : int;
  checksum_failures : int;
}

let empty_result scenario ~offered_rate ~duration_s =
  {
    scenario;
    offered_rate;
    duration_s;
    started = 0;
    completed = 0;
    rpc_errors = 0;
    shed = 0;
    completed_rate = 0.0;
    connect = tail_of_hist (Stats.Hist.create ());
    request = tail_of_hist (Stats.Hist.create ());
    bulk_goodput_gbps = 0.0;
    listen_overflows = 0;
    accepted = 0;
    client_resets = 0;
    flood_syns = 0;
    conntrack_entries = 0;
    conntrack_half_open = 0;
    evicted_half_open = 0;
    evicted_established = 0;
    conns_at_kill = 0;
    shard_restarts = 0;
    steering_violations = 0;
    checksum_failures = 0;
  }

(* Churn needs a short MSL: a closed RPC's four-tuple sits in TIME_WAIT
   for 2×MSL, and at the default 1 s MSL a 10k conn/s run would pin
   ~20k ephemeral four-tuples — more than one shard's slice of the
   ephemeral range. A DUT serving RPC churn is tuned accordingly (the
   reap itself, and that port reuse waits for it, is verified by the
   TIME_WAIT regression test). *)
let churn_tcp_config =
  { Tcp.default_config with Tcp.msl = Time.of_seconds 0.02 }

let echo_port = 22

(* {1 The SYN flood}

   Spoofed sources from the 198.18.0.0/15 benchmark space: the victim's
   SYN-ACK/RST dies waiting on ARP for an address that never answers,
   so every flood flow leaves a half-open conntrack entry behind (and
   nothing on the attacker's side). Sources cycle through a bounded set
   of IPs with the flow uniqueness carried by the source port, so the
   victim's per-next-hop ARP wait lists (capped) bound the pool slots
   its unanswerable replies pin. *)
let flood_ips = 500

let flood_src c =
  let i = c mod flood_ips in
  (Addr.Ipv4.v 198 18 (i / 250) (1 + (i mod 250)), 1024 + (c / flood_ips))

let start_flood s ~rate ~from_t ~until_t counter =
  let tick = Time.of_seconds 0.001 in
  let batch = max 1 (int_of_float (rate /. 1000.0)) in
  let rec arm at =
    if at < until_t then
      S.at s at (fun () ->
          for _ = 1 to batch do
            incr counter;
            let src, src_port = flood_src !counter in
            Sink.send_tcp_syn (S.sink s) ~src ~src_port ~dst:(S.local_addr s)
              ~dst_port:9
          done;
          arm (at + tick))
  in
  arm from_t

(* {1 The sharded scenarios: baseline, flood, crash-during-churn} *)

let run_sharded scenario ~rate ~duration ~shards ~ip_replicas ~pf_shards
    ~bulk_flows ~workers ~payload ~flood_rate ~conntrack_total ~seed ?verify
    ?break_tcp () =
  let config =
    {
      S.default_config with
      S.seed;
      shards;
      ip_replicas = min ip_replicas shards;
      pf_shards = min pf_shards shards;
      pf_rules = Some [ Rule.pass_all ];
      tcp_config = Some churn_tcp_config;
      conntrack_total;
    }
  in
  let until = Time.of_seconds duration in
  let w =
    Scenario.lower ?verify
      (Scenario.v (Scenario.Sharded config)
         ~title:(Printf.sprintf "churn %s" (scenario_name scenario))
         ~flows:(List.init bulk_flows (fun i -> Scenario.flow ~port:(5001 + i) until))
         ~horizon:(until + Time.of_seconds 0.5))
  in
  let s = Scenario.net w in
  (* Sabotage arming rides every shard's incarnations: Ack_from_closed
     bites on flood traffic to unbound ports, Stale_established on the
     shard kill below. *)
  Option.iter
    (fun mode ->
      for i = 0 to shards - 1 do
        Tcp_srv.set_break_tcp (S.tcp_shard s i) (Some mode)
      done)
    break_tcp;
  Sink.serve_tcp_echo (S.sink s) ~port:echo_port;
  let pace = Time.of_seconds (float_of_int workers /. rate) in
  let churners =
    List.init workers (fun _ ->
        Apps.Rpc_churn.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s)
          ~dst:(S.sink_addr s) ~port:echo_port ~pace ~payload ~until ())
  in
  let flood_syns = ref 0 in
  (match scenario with
  | Syn_flood | Crash_during_churn ->
      start_flood s ~rate:flood_rate
        ~from_t:(Time.of_seconds (0.1 *. duration))
        ~until_t:(Time.of_seconds (0.9 *. duration))
        flood_syns
  | Baseline | Listen_pressure -> ());
  let conns_at_kill = ref 0 in
  (match scenario with
  | Crash_during_churn ->
      S.at s
        (Time.of_seconds (0.5 *. duration))
        (fun () ->
          conns_at_kill :=
            Tcp.connection_count (Tcp_srv.engine (S.tcp_shard s 0));
          S.kill_shard s 0)
  | Baseline | Syn_flood | Listen_pressure -> ());
  (* Past [until], so in-flight RPCs and the recovery drain before the
     stats are read. *)
  Scenario.run w;
  (* With the FSM checker riding, cross-check every filter shard's
     conntrack confirmation bits against the checker's shadow states
     before the verdict is absorbed. *)
  if Tcpfsm.active () then
    for i = 0 to S.pf_shard_count s - 1 do
      Tcpfsm.crosscheck_conntrack
        ~where:
          (Printf.sprintf "churn %s: pf shard %d" (scenario_name scenario) i)
        (Pf_engine.conntrack (Pf_srv.engine_of (S.pf_shard s i)))
    done;
  let connect_h = Stats.Hist.create () and request_h = Stats.Hist.create () in
  List.iter
    (fun c ->
      Stats.Hist.merge ~into:connect_h (Apps.Rpc_churn.connect_hist c);
      Stats.Hist.merge ~into:request_h (Apps.Rpc_churn.request_hist c))
    churners;
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 churners in
  let pf = Array.to_list (S.pf_shard_stats s) in
  let sum_pf f = List.fold_left (fun acc p -> acc + f p) 0 pf in
  let sum_shards f = List.fold_left (fun acc i -> acc + f i) 0 (List.init shards Fun.id) in
  let completed = sum Apps.Rpc_churn.completed in
  let result =
    {
      (empty_result scenario ~offered_rate:rate ~duration_s:duration) with
      started = sum Apps.Rpc_churn.started;
      completed;
      rpc_errors = sum Apps.Rpc_churn.errors;
      shed = sum Apps.Rpc_churn.shed;
      completed_rate = float_of_int completed /. duration;
      connect = tail_of_hist connect_h;
      request = tail_of_hist request_h;
      bulk_goodput_gbps =
        float_of_int (List.fold_left ( + ) 0 (List.init bulk_flows (Scenario.received w)))
        *. 8.0 /. duration /. 1e9;
      listen_overflows = sum_shards (fun i -> Tcp_srv.listen_overflows (S.tcp_shard s i));
      flood_syns = !flood_syns;
      conntrack_entries = sum_pf (fun p -> p.S.entries);
      conntrack_half_open = sum_pf (fun p -> p.S.half_open);
      evicted_half_open = sum_pf (fun p -> p.S.evicted_half_open);
      evicted_established = sum_pf (fun p -> p.S.evicted_established);
      conns_at_kill = !conns_at_kill;
      shard_restarts = sum_shards (S.shard_restarts s);
      steering_violations = S.steering_violations s;
      checksum_failures = Sink.checksum_failures (S.sink s);
    }
  in
  (* The result is read above, at the same simulated time armed or not;
     the verifier then runs on until the world quiesces. *)
  Scenario.close ?verify w ~until:(until + Time.of_seconds 0.75) ~check_leaks:false;
  result

(* {1 Listen-queue pressure}

   Runs on the split {!Host}: inbound connections steer by flow hash,
   so only a single-listener topology lets one accept queue feel the
   full arrival rate. A deliberately slow accept loop behind a small
   backlog: arrivals beyond the queue must be refused (RST, counted) —
   the pre-fix server queued them without bound. *)
let listen_port = 2222
let accept_interval = Time.of_seconds 0.005

let run_listen_pressure ~rate ~duration ~backlog ~seed ?verify () =
  let until = Time.of_seconds duration in
  let w =
    Scenario.lower ?verify
      (Scenario.v (Scenario.Split { Host.default_config with Host.seed })
         ~title:"churn listen-pressure" ~horizon:(until + Time.of_seconds 0.5))
  in
  let h = Scenario.net w in
  let sc = Host.sc h and app = Host.app h in
  let accepted = ref 0 in
  (* The slow server: listen with a small backlog, accept one
     connection every [accept_interval] and close it immediately. *)
  Socket_api.tcp_socket sc app (fun listener ->
      Socket_api.bind listener ~port:listen_port (fun _ ->
          Socket_api.listen ~backlog listener (fun _ ->
              let rec accept_loop () =
                Socket_api.accept listener (fun result ->
                    (match result with
                    | `Conn conn ->
                        incr accepted;
                        Socket_api.close conn (fun () -> ())
                    | `Error _ -> ());
                    Host.at h
                      (Engine.now (Host.engine h) + accept_interval)
                      accept_loop)
              in
              accept_loop ())));
  (* The clients: paced inbound connects from the sink. *)
  let sink = Host.sink h 0 in
  let connect_h = Stats.Hist.create () in
  let started = ref 0 and established = ref 0 and resets = ref 0 in
  let pace = Time.of_seconds (1.0 /. rate) in
  let rec client at =
    if at < until then
      Host.at h at (fun () ->
          incr started;
          let t0 = Engine.now (Host.engine h) in
          let pcb =
            Sink.connect sink ~dst:(Host.local_addr h 0) ~dst_port:listen_port
          in
          Tcp.set_handler pcb (fun ev ->
              match ev with
              | Tcp.Connected ->
                  incr established;
                  Stats.Hist.record connect_h
                    (Time.to_seconds (Engine.now (Host.engine h) - t0) *. 1e6)
              | Tcp.Reset -> incr resets
              | Tcp.Accepted | Tcp.Readable | Tcp.Writable
              | Tcp.Closed_normally ->
                  ());
          client (at + pace))
  in
  client (Time.of_seconds 0.01);
  Scenario.run w;
  let result =
    {
      (empty_result Listen_pressure ~offered_rate:rate ~duration_s:duration) with
      started = !started;
      completed = !established;
      completed_rate = float_of_int !established /. duration;
      connect = tail_of_hist connect_h;
      listen_overflows = Tcp_srv.listen_overflows (Host.tcp_srv h);
      accepted = !accepted;
      client_resets = !resets;
      checksum_failures = Sink.checksum_failures sink;
    }
  in
  Scenario.close ?verify w ~until:(until + Time.of_seconds 0.75) ~check_leaks:false;
  result

let run ?(scenario = Baseline) ?(rate = 10_000.0) ?(duration = 1.0)
    ?(shards = 8) ?(ip_replicas = 4) ?(pf_shards = 2) ?(bulk_flows = 4)
    ?(workers = 8) ?(payload = 256) ?(flood_rate = 20_000.0)
    ?(conntrack_total = 8192) ?(backlog = 16) ?(seed = 42) ?verify ?break_tcp
    () =
  match scenario with
  | Baseline | Syn_flood | Crash_during_churn ->
      run_sharded scenario ~rate ~duration ~shards ~ip_replicas ~pf_shards
        ~bulk_flows ~workers ~payload ~flood_rate ~conntrack_total ~seed
        ?verify ?break_tcp ()
  | Listen_pressure ->
      run_listen_pressure ~rate:(Float.min rate 2000.0) ~duration ~backlog
        ~seed ?verify ()

let all_scenarios = [ Baseline; Syn_flood; Crash_during_churn; Listen_pressure ]
