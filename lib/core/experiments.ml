module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Series = Newt_sim.Series
module Rng = Newt_sim.Rng
module Costs = Newt_hw.Costs
module Tcp = Newt_net.Tcp
module Pf_engine = Newt_pf.Pf_engine
module Sink = Newt_stack.Sink
module Capacity = Newt_stack.Capacity
module Fault_inject = Newt_reliability.Fault_inject
module Apps = Newt_sockets.Apps
module Continuous = Newt_verify.Continuous
module Checker = Newt_verify.Checker
module Protocol = Newt_verify.Protocol
module Mcheck = Newt_verify.Mcheck
module Component = Newt_stack.Component
module Reincarnation = Newt_reliability.Reincarnation

(* {1 Table II} *)

type table2_row = {
  label : string;
  paper_gbps : string;
  measured_gbps : float;
  bottleneck : string;
}

let paper_value = function
  | Capacity.Minix_sync -> "0.12"
  | Capacity.Split_dedicated -> "3.2"
  | Capacity.Split_dedicated_sc -> "3.6"
  | Capacity.Single_server_sc -> "3.9"
  | Capacity.Single_server_sc_tso -> "5+"
  | Capacity.Split_dedicated_sc_tso -> "5+"
  | Capacity.Linux_10gbe -> "8.4"

let table_ii () =
  List.map
    (fun config ->
      let r = Capacity.evaluate config in
      {
        label = Capacity.name config;
        paper_gbps = paper_value config;
        measured_gbps = r.Capacity.goodput_gbps;
        bottleneck = r.Capacity.bottleneck;
      })
    Capacity.all

(* {1 Event-simulation cross-validation} *)

type event_peak = {
  goodput_gbps : float;
  capacity_prediction_gbps : float;
  per_link_mbps : float list;
  tcp_util : float;
  ip_util : float;
  pf_util : float;
  drv_util : float;
  segs_per_unit : float;
}

(* Also returns the bytes delivered and the pool operations the TCP
   server was charged. *)
let split_peak_run ~nics ~duration ~coalesce_drivers () =
  let until = Time.of_seconds duration in
  let w =
    Scenario.lower
      (Scenario.v
         (Scenario.Split { Host.default_config with Host.nics; app_cores = nics; coalesce_drivers })
         ~flows:(List.init nics (fun link -> Scenario.flow ~link ~port:5001 until))
         ~horizon:until)
  in
  Scenario.run w;
  let h = Scenario.net w in
  let totals = Array.init nics (Scenario.received w) in
  let now = Engine.now (Host.engine h) in
  let util comp =
    Newt_hw.Cpu.utilization (Newt_stack.Proc.core (Host.proc_of h comp)) ~now
  in
  let drv_util =
    List.fold_left max 0.0 (List.init nics (fun i -> util (Host.C_drv i)))
  in
  let total = Array.fold_left ( + ) 0 totals in
  let segs = Newt_stack.Tcp_srv.total_segs_out (Host.tcp_srv h) in
  let peak =
    {
      goodput_gbps = float_of_int total *. 8.0 /. duration /. 1e9;
      capacity_prediction_gbps =
        (Capacity.evaluate ~nics Capacity.Split_dedicated_sc).Capacity.goodput_gbps;
      per_link_mbps =
        Array.to_list
          (Array.map (fun t -> float_of_int t *. 8.0 /. duration /. 1e6) totals);
      tcp_util = util Host.C_tcp;
      ip_util = util Host.C_ip;
      pf_util = util Host.C_pf;
      drv_util;
      segs_per_unit = float_of_int segs /. (float_of_int total /. 1460.0);
    }
  in
  (total, Newt_stack.Proc.pool_ops (Host.proc_of h Host.C_tcp), peak)

let split_peak_event_sim ?(nics = 5) ?(duration = 1.0) ?(coalesce_drivers = false) () =
  let _, _, peak = split_peak_run ~nics ~duration ~coalesce_drivers () in
  peak

(* The single-server topology (Table II line 4), packet level: the same
   protocol code as the split stack, deployed as one merged server.
   Also returns the bytes delivered and the pool operations the merged
   server was charged. *)
let single_server_run ~nics ~duration () =
  let module Machine = Newt_hw.Machine in
  let module Registry = Newt_channels.Registry in
  let module Sim_chan = Newt_channels.Sim_chan in
  let module Link = Newt_nic.Link in
  let module Mq = Newt_nic.Mq_e1000 in
  let module Addr = Newt_net.Addr in
  let module Proc = Newt_stack.Proc in
  let module Component = Newt_stack.Component in
  let module Drv_srv = Newt_stack.Drv_srv in
  let module Single = Newt_stack.Single_srv in
  let module Sc = Newt_stack.Syscall_srv in
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let registry = Registry.create () in
  let sc_core = Machine.add_dedicated_core machine in
  let stk_core = Machine.add_dedicated_core machine in
  let drv_cores = Array.init nics (fun _ -> Machine.add_dedicated_core machine) in
  let app_cores = Array.init nics (fun _ -> Machine.add_timeshared_core machine) in
  let sc_comp = Component.create machine ~name:"sc" ~core:sc_core () in
  let stk_proc = Proc.create machine ~name:"stack" ~core:stk_core () in
  let sc = Sc.create sc_comp () in
  let stk =
    Single.create machine ~proc:stk_proc ~registry ~local_addr:(Addr.Ipv4.v 10 0 0 1) ()
  in
  let chan_id = ref 5000 in
  let chan () =
    incr chan_id;
    Sim_chan.create ~capacity:8192 ~id:!chan_id ()
  in
  let ch_sc_to_stk = chan () and ch_stk_to_sc = chan () in
  Sc.connect_transport_sharded sc ~transport:`Tcp
    ~pairs:[| (ch_sc_to_stk, ch_stk_to_sc) |];
  Single.connect_sc stk ~from_sc:ch_sc_to_stk ~to_sc:ch_stk_to_sc;
  let totals = Array.make nics 0 in
  let sinks =
    Array.init nics (fun i ->
        let link = Link.create engine () in
        let nic =
          Mq.create engine ~registry ~link ~side:Link.Left
            ~mac:(Addr.Mac.of_index (100 + i)) ~rss:(Newt_nic.Rss.create ~queues:1 ())
            ()
        in
        let drv_comp =
          Component.create machine ~name:(Printf.sprintf "drv%d" i)
            ~core:drv_cores.(i) ()
        in
        let drv = Drv_srv.create drv_comp ~nic () in
        let tx_chan = chan () and rx_chan = chan () in
        let iface =
          Single.add_iface stk ~addr:(Addr.Ipv4.v 10 0 i 1)
            ~mac:(Mq.mac nic) ~drv ~tx_chan ~rx_chan
        in
        Single.add_route stk ~prefix:(Addr.Ipv4.v 10 0 i 0) ~bits:24 ~iface
          ~gateway:None;
        Single.add_neighbor stk ~iface (Addr.Ipv4.v 10 0 i 2)
          (Addr.Mac.of_index (200 + i));
        let sink =
          Sink.create engine ~link ~side:Link.Right ~addr:(Addr.Ipv4.v 10 0 i 2)
            ~mac:(Addr.Mac.of_index (200 + i))
            ()
        in
        Sink.sink_tcp sink ~port:5001 ~on_bytes:(fun ~at:_ n ->
            totals.(i) <- totals.(i) + n);
        sink)
  in
  ignore sinks;
  let next_app = ref 0 in
  let app () =
    let core = app_cores.(!next_app mod nics) in
    incr next_app;
    { Sc.app_core = core; app_pid = 20_000 + !next_app }
  in
  let _ =
    List.init nics (fun i ->
        Apps.Iperf.start machine ~sc ~app:(app ()) ~dst:(Addr.Ipv4.v 10 0 i 2)
          ~port:5001 ~until:(Time.of_seconds duration) ())
  in
  Engine.run ~until:(Time.of_seconds duration) engine;
  let total = Array.fold_left ( + ) 0 totals in
  let util =
    Newt_hw.Cpu.utilization stk_core ~now:(Engine.now engine)
  in
  (total, Proc.pool_ops stk_proc, (float_of_int total *. 8.0 /. duration /. 1e9, util))

let single_server_event_sim ?(duration = 1.0) () =
  let _, _, r = single_server_run ~nics:5 ~duration () in
  r

(* {2 Pool operations: charged and modelled} *)

type pool_accounting = { charged_per_unit : float; model_per_segment : float }

let pool_accounting stage =
  let nics = 5 and duration = 0.2 in
  let (total, charged), config, label =
    match stage with
    | `Split_tcp ->
        let total, charged, _ = split_peak_run ~nics ~duration ~coalesce_drivers:false () in
        ((total, charged), Capacity.Split_dedicated_sc, "tcp server")
    | `Single ->
        let total, charged, _ = single_server_run ~nics ~duration () in
        ((total, charged), Capacity.Single_server_sc, "stack server (tcp+ip)")
  in
  let stage =
    List.find
      (fun s -> s.Capacity.label = label)
      (Capacity.evaluate config).Capacity.stages
  in
  {
    charged_per_unit = float_of_int charged /. (float_of_int total /. 1460.0);
    model_per_segment = stage.Capacity.pool_ops_per_segment;
  }

type minix_result = {
  minix_mbps : float;
  minix_core_util : float;
  sync_ipcs_per_sec : float;
  minix_lossless : bool;
}

let minix_event_sim ?(duration = 2.0) () =
  let module Machine = Newt_hw.Machine in
  let module Link = Newt_nic.Link in
  let module Addr = Newt_net.Addr in
  let module Minix = Newt_stack.Minix_stack in
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let link = Link.create engine () in
  let sink =
    Sink.create engine ~link ~side:Link.Right ~addr:(Addr.Ipv4.v 10 0 0 2)
      ~mac:(Addr.Mac.of_index 200) ()
  in
  let received = ref 0 in
  Sink.sink_tcp sink ~port:5001 ~on_bytes:(fun ~at:_ n -> received := !received + n);
  let mx =
    Minix.create machine ~link ~addr:(Addr.Ipv4.v 10 0 0 1)
      ~peer_mac:(Addr.Mac.of_index 200) ()
  in
  Minix.start_iperf mx ~dst:(Addr.Ipv4.v 10 0 0 2) ~port:5001
    ~until:(Time.of_seconds duration);
  Engine.run ~until:(Time.of_seconds (duration +. 0.5)) engine;
  {
    minix_mbps = float_of_int !received *. 8.0 /. duration /. 1e6;
    minix_core_util = Minix.core_utilization mx;
    sync_ipcs_per_sec = float_of_int (Minix.sync_ipc_count mx) /. duration;
    minix_lossless =
      Minix.bytes_sent mx = !received && Sink.checksum_failures sink = 0;
  }

(* {1 Figures 4 and 5} *)

type crash_trace = {
  points : (float * float) array;
  duplicate_segments : int;
  sender_retransmits : int;
  lost_segments : int;
  component_restarts : int;
}

let crash_run ?nic_reset ?verify ~seed ~rules ~protect_port ~crashes ~component
    ~duration () =
  let rule_list =
    if rules <= 2 then [ Newt_pf.Rule.pass_all ]
    else Pf_engine.generate_ruleset (Rng.create (seed + 1)) ~n:rules ~protect_port
  in
  let default = Host.default_config in
  let nic_reset_time = Option.value nic_reset ~default:default.Host.nic_reset_time in
  let config = { default with Host.seed; pf_rules = rule_list; nic_reset_time } in
  (* Run past the end so in-flight data drains and losses would show;
     with the verifier attached, half a second further still so the
     leak check reads a quiesced stack. *)
  let w =
    Scenario.lower ?verify
      (Scenario.v (Scenario.Split config) ~title:"crash run"
         ~flows:[ Scenario.flow ~port:protect_port (Time.of_seconds (duration -. 1.0)) ]
         ~kills:(List.map (fun at -> (Time.of_seconds at, component)) crashes)
         ~horizon:(Time.of_seconds (duration +. 1.0)))
  in
  Scenario.run w;
  Scenario.close ?verify w ~until:(Time.of_seconds (duration +. 1.5)) ~check_leaks:true;
  let h = Scenario.net w in
  let sink = Host.sink h 0 in
  let received = Sink.tcp_bytes_received sink in
  let sent = Apps.Iperf.bytes_sent (Scenario.iperf w 0) in
  let sink_stats = Tcp.stats (Sink.tcp sink) in
  let sender_stats = Tcp.stats (Newt_stack.Tcp_srv.engine (Host.tcp_srv h)) in
  {
    points = Series.mbps (Scenario.bitrate w) ~upto:(Time.of_seconds duration) ();
    duplicate_segments = sink_stats.Tcp.dup_segs_in;
    sender_retransmits = sender_stats.Tcp.retransmits;
    lost_segments = (max 0 (sent - received) + 1459) / 1460;
    component_restarts =
      Reincarnation.restarts_of (Scenario.rs w) (Scenario.component w component);
  }

let figure_ip_crash ?(seed = 42) ?(crash_at = 4.0) ?(duration = 10.0) ?nic_reset
    ?verify () =
  crash_run ?nic_reset ?verify ~seed ~rules:0 ~protect_port:5001
    ~crashes:[ crash_at ] ~component:"ip" ~duration ()

(* How long the Figure 4 outage lasts, from the crash until the bitrate
   is back above 800 Mbps. *)
let recovery_gap ~crash_at (t : crash_trace) =
  (* First bin after the crash where the bitrate is back. *)
  let recovered = ref None in
  Array.iter
    (fun (time, mbps) ->
      if !recovered = None && time > crash_at && mbps >= 800.0 then
        recovered := Some time)
    t.points;
  match !recovered with Some time -> time -. crash_at | None -> infinity

type reset_sweep_point = {
  reset_time_s : float;
  outage_s : float;
  duplicates : int;
}

let nic_reset_sweep () =
  (* "We believe that restart-aware hardware would allow less
     disruptive recovery" (Section V-D): sweep the device reset time
     and measure the Figure 4 outage. *)
  List.map
    (fun reset_s ->
      let t =
        figure_ip_crash ~nic_reset:(Time.of_seconds reset_s) ~duration:8.0
          ~crash_at:2.0 ()
      in
      {
        reset_time_s = reset_s;
        outage_s = recovery_gap ~crash_at:2.0 t;
        duplicates = t.duplicate_segments;
      })
    [ 1.2; 0.3; 0.05 ]

let figure_pf_crash ?(seed = 42) ?(rules = 1024) ?(crash_at = [ 6.0; 12.0 ])
    ?(duration = 18.0) ?verify () =
  crash_run ?verify ~seed ~rules ~protect_port:5001 ~crashes:crash_at
    ~component:"pf" ~duration ()

(* {1 The fault-injection campaign} *)

type run_outcome = {
  injected : Fault_inject.injection;
  ssh_survived : bool;
  reachable_auto : bool;
  reachable_after_manual : bool;
  udp_transparent : bool;
  needed_reboot : bool;
  fully_transparent : bool;
}

type pf_shard_totals = {
  pf_shard : int;
  verdicts : int;
  blocked_packets : int;
  conntrack_expired : int;
}

type campaign = {
  runs : run_outcome list;
  pf_counters : pf_shard_totals array;
  crashes_tcp : int;
  crashes_udp : int;
  crashes_ip : int;
  crashes_pf : int;
  crashes_drv : int;
  fully_transparent : int;
  reachable : int;
  manually_fixed : int;
  broke_tcp : int;
  transparent_udp : int;
  reboots : int;
}

let campaign_run ?verify ?break_recovery ?(pf_shards = 1) ~seed
    (inj : Fault_inject.injection) =
  let rules =
    Pf_engine.generate_ruleset (Rng.create (seed + 1)) ~n:64 ~protect_port:22
  in
  let w =
    Scenario.build ?verify
      (Scenario.v
         (Scenario.Split { Host.default_config with Host.seed; pf_rules = rules; pf_shards })
         ~title:"campaign run"
         ~flows:
           [ Scenario.flow ~port:5001 ~pace:(Time.of_seconds 0.02) (Time.of_seconds 9.5) ]
         ~horizon:(Time.of_seconds 10.0) ?break_recovery)
  in
  let h = Scenario.net w in
  let sink = Host.sink h 0 in
  Sink.serve_tcp_echo sink ~port:22;
  Sink.serve_dns sink ~zone:(fun _ -> Some (Host.sink_addr h 0)) ();
  (* The stress workload of Section VI-B: a TCP connection and periodic
     DNS queries; plus the inbound SSH-like listener on the host. *)
  Apps.Echo_listener.start (Host.sc h) ~app:(Host.app h) ~port:22;
  let ssh =
    Apps.Ssh_session.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~port:22 ()
  in
  let dns =
    Apps.Dns_client.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~timeout:(Time.of_seconds 0.5) ()
  in
  (* The paced iperf starts after the other apps, which take the first
     app cores and pids. *)
  Scenario.start w;
  Host.at h (Time.of_seconds 2.0) (fun () -> Host.inject h inj);
  (* Probe inbound reachability after recovery settles. *)
  let reachable_auto = ref false in
  Host.at h (Time.of_seconds 5.5) (fun () ->
      Host.probe_reachable h ~port:22 ~timeout:(Time.of_seconds 1.4) (fun ok ->
          reachable_auto := ok));
  (* Administrator intervention for the stubborn cases, then re-probe. *)
  let reachable_manual = ref false in
  let manual_done = ref false in
  Host.at h (Time.of_seconds 7.2) (fun () ->
      if (not !reachable_auto) && not (Host.frozen h) then begin
        manual_done := true;
        Host.manual_restart h (Host.component_of_injection inj)
      end);
  Host.at h (Time.of_seconds 8.6) (fun () ->
      if !manual_done then
        Host.probe_reachable h ~port:22 ~timeout:(Time.of_seconds 1.2) (fun ok ->
            reachable_manual := ok));
  let ssh_ok_at_8s = ref 0 in
  Host.at h (Time.of_seconds 8.0) (fun () -> ssh_ok_at_8s := Apps.Ssh_session.exchanges_ok ssh);
  Scenario.run w;
  (* With the verifier attached, let the run's tail drain (iperf ends
     at 9.5 s) so the end-of-run leak accounting reads a quiesced
     stack; a frozen world never drains, so skip its leak check. *)
  Scenario.close ?verify w ~until:(Time.of_seconds 11.0) ~check_leaks:(not (Host.frozen h));
  let frozen = Host.frozen h in
  let ssh_survived =
    (not (Apps.Ssh_session.broken ssh))
    && Apps.Ssh_session.exchanges_ok ssh > !ssh_ok_at_8s
  in
  (* Transparent to UDP: the resolver rode out the fault on the same
     socket — at most a short outage (a NIC reset takes ~1.4 s, i.e. 2-3
     failed cycles), never reopening. *)
  let udp_transparent =
    (not frozen)
    && Apps.Dns_client.max_consecutive_failures dns <= 4
    && Apps.Dns_client.socket_reopens dns = 0
    && Apps.Dns_client.answered dns > 0
  in
  let reachable_auto = !reachable_auto && not frozen in
  let counters =
    Array.init (Host.pf_shard_count h) (fun j ->
        let pf = Host.pf_shard_srv h j in
        {
          pf_shard = j;
          verdicts = Newt_stack.Pf_srv.verdicts_issued pf;
          blocked_packets = Newt_stack.Pf_srv.blocked pf;
          conntrack_expired = Newt_stack.Pf_srv.conntrack_expired pf;
        })
  in
  ( {
      injected = inj;
      ssh_survived;
      reachable_auto;
      reachable_after_manual = !reachable_manual;
      udp_transparent;
      needed_reboot = frozen;
      fully_transparent =
        ssh_survived && reachable_auto && udp_transparent && not frozen;
    },
    counters )

(* The default seed gives a representative sample (the campaign is
   stochastic, as the paper's was — "the tool injects faults randomly so
   the faults are unpredictable"); other seeds vary by a few counts. *)
let fault_campaign ?(runs = 100) ?(seed = 2) ?verify ?break_recovery
    ?pf_shards () =
  let rng = Rng.create seed in
  let injections = Fault_inject.draw_many rng ~ndrv:1 ~runs in
  let results =
    List.mapi
      (fun i inj ->
        campaign_run ?verify ?break_recovery ?pf_shards
          ~seed:(seed + (1000 * (i + 1))) inj)
      injections
  in
  let outcomes = List.map fst results in
  (* Per-PF-shard counters, summed over the campaign's runs: under the
     random kill load every shard must keep issuing verdicts — a silent
     shard is a partition that never saw traffic. *)
  let add a b =
    {
      a with
      verdicts = a.verdicts + b.verdicts;
      blocked_packets = a.blocked_packets + b.blocked_packets;
      conntrack_expired = a.conntrack_expired + b.conntrack_expired;
    }
  in
  let pf_counters =
    match List.map snd results with
    | [] -> [||]
    | first :: rest -> List.fold_left (Array.map2 add) first rest
  in
  let count p = List.length (List.filter p outcomes) in
  let target_is target o =
    match (o.injected.Fault_inject.target, target) with
    | Fault_inject.T_tcp, `Tcp
    | Fault_inject.T_udp, `Udp
    | Fault_inject.T_ip, `Ip
    | Fault_inject.T_pf, `Pf
    | Fault_inject.T_drv _, `Drv ->
        true
    | _ -> false
  in
  {
    runs = outcomes;
    pf_counters;
    crashes_tcp = count (target_is `Tcp);
    crashes_udp = count (target_is `Udp);
    crashes_ip = count (target_is `Ip);
    crashes_pf = count (target_is `Pf);
    crashes_drv = count (target_is `Drv);
    fully_transparent = count (fun o -> o.fully_transparent);
    reachable = count (fun o -> o.reachable_auto);
    manually_fixed = count (fun o -> (not o.reachable_auto) && o.reachable_after_manual);
    broke_tcp = count (fun o -> not o.ssh_survived);
    transparent_udp = count (fun o -> o.udp_transparent);
    reboots = count (fun o -> o.needed_reboot);
  }

(* {1 MWAIT latency ablation} *)

type latency_point = {
  poll_window_us : float;
  mean_rtt_us : float;
  pings : int;
  awake_fraction : float;
}

let mwait_latency_ablation ?(seed = 42) () =
  let measure poll_window =
    let costs = { Costs.default with Costs.poll_window } in
    let w =
      Scenario.lower
        (Scenario.v (Scenario.Split { Host.default_config with Host.seed; costs })
           ~horizon:(Time.of_seconds 1.2))
    in
    let h = Scenario.net w in
    let sink = Host.sink h 0 in
    let rtts = ref [] in
    (* Space the pings out so every server goes idle in between. *)
    for i = 1 to 50 do
      Host.at h (Time.of_seconds (0.5 +. (0.005 *. float_of_int i))) (fun () ->
          Sink.ping sink ~dst:(Host.local_addr h 0) (fun ~rtt ->
              rtts := rtt :: !rtts))
    done;
    Scenario.run w;
    let n = List.length !rtts in
    let mean =
      if n = 0 then 0.0
      else
        float_of_int (List.fold_left ( + ) 0 !rtts)
        /. float_of_int n
        /. (float_of_int Time.cycles_per_second /. 1e6)
    in
    let now = Engine.now (Host.engine h) in
    let os_cores =
      List.map
        (fun comp -> Newt_stack.Proc.core (Host.proc_of h comp))
        [ Host.C_tcp; Host.C_udp; Host.C_ip; Host.C_pf; Host.C_drv 0 ]
    in
    let awake =
      List.fold_left
        (fun acc core ->
          acc + Newt_hw.Cpu.busy_cycles core + Newt_hw.Cpu.polling_cycles core)
        0 os_cores
    in
    {
      poll_window_us =
        float_of_int poll_window /. (float_of_int Time.cycles_per_second /. 1e6);
      mean_rtt_us = mean;
      pings = n;
      awake_fraction =
        float_of_int awake /. float_of_int (now * List.length os_cores);
    }
  in
  List.map measure [ 0; Costs.default.Costs.poll_window; Time.of_micros 10_000.0 ]

(* {1 Driver coalescing} *)

type coalescing_result = {
  drivers : int;
  nics_served : int;
  driver_core_utilization : float;
  sustainable : bool;
}

let driver_coalescing () =
  (* At the full 5-NIC TSO rate (Table II line 6), compute the load on a
     driver core serving k NICs. *)
  let r = Capacity.evaluate Capacity.Split_dedicated_sc_tso in
  let total_gbps = r.Capacity.goodput_gbps in
  let segments_per_sec = total_gbps *. 1e9 /. (1460.0 *. 8.0) in
  let cycles_per_seg =
    match
      List.find_opt
        (fun s -> s.Capacity.label = "driver server")
        r.Capacity.stages
    with
    | Some s -> s.Capacity.cycles_per_segment
    | None -> 0.0
  in
  List.map
    (fun drivers ->
      let nics = 5 in
      let share = float_of_int nics /. float_of_int drivers in
      let load =
        segments_per_sec /. float_of_int nics *. share *. cycles_per_seg
        /. float_of_int Time.cycles_per_second
      in
      {
        drivers;
        nics_served = (nics + drivers - 1) / drivers;
        driver_core_utilization = load;
        sustainable = load < 1.0;
      })
    [ 5; 1 ]

(* {1 Scaling curve — N transport shards behind a multi-queue NIC} *)

type scaling_point = {
  shards : int;
  ip_replicas : int;
  pf_shards : int;  (* 0 = no filter in the path *)
  goodput_gbps : float;
  per_shard : Newt_scale.Sharded_stack.shard_stats array;
  per_pf_shard : Newt_scale.Sharded_stack.pf_shard_stats array;
  imbalance : float;
  violations : int;
}

type scaling_result = {
  points : scaling_point list;
  single_instance_gbps : float;
}

let scaling_curve ?(shard_counts = [ 1; 2; 4; 8 ]) ?(ip_replicas = 1)
    ?(pf_shards = 0) ?(flows = 8) ?(duration = 0.5) ?verify () =
  let module S = Newt_scale.Sharded_stack in
  let run_point n =
    (* A point can't use more IP replicas (or PF shards) than it has
       transport shards. [pf_shards = 0] keeps the filter out of the
       path (the historical no-PF curve). *)
    let r = min ip_replicas n in
    let np = min pf_shards n in
    let config =
      {
        S.default_config with
        S.shards = n;
        ip_replicas = r;
        link_gbps = 40.0;
        pf_shards = max 1 np;
        pf_rules = (if np = 0 then None else Some [ Newt_pf.Rule.pass_all ]);
      }
    in
    let until = Time.of_seconds duration in
    let w =
      Scenario.lower ?verify
        (Scenario.v (Scenario.Sharded config)
           ~title:(Printf.sprintf "scaling N=%d r=%d" n r)
           ~flows:(List.init flows (fun i -> Scenario.flow ~port:(5001 + i) until))
           ~horizon:until)
    in
    Scenario.run w;
    Scenario.close ?verify w ~until:(Time.of_seconds (duration +. 0.25)) ~check_leaks:false;
    let s = Scenario.net w in
    let total = List.fold_left ( + ) 0 (List.init flows (Scenario.received w)) in
    {
      shards = n;
      ip_replicas = r;
      pf_shards = np;
      goodput_gbps = float_of_int total *. 8.0 /. duration /. 1e9;
      per_shard = S.shard_stats s;
      per_pf_shard = S.pf_shard_stats s;
      imbalance = S.imbalance_ratio s;
      violations = S.steering_violations s;
    }
  in
  {
    points = List.map run_point shard_counts;
    single_instance_gbps =
      (Capacity.evaluate Capacity.Split_dedicated_sc).Capacity.goodput_gbps;
  }

(* {1 Stack verifier — static channel-graph checks over every shipped
   configuration} *)

let verify_configs ?(max_shards = 8) () =
  let check title stack = Scenario.check (Scenario.build (Scenario.v stack)) ~title in
  let split = check "split stack" (Scenario.Split Host.default_config) in
  let sharded =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun (r, pf) ->
            if r > n || pf > n then None
            else
              Some
                (check
                   (Printf.sprintf "sharded N=%d r=%d pf=%d" n r pf)
                   (Scenario.Sharded
                      { Newt_scale.Sharded_stack.default_config with
                        shards = n; ip_replicas = r; pf_shards = pf;
                        pf_rules = Some [ Newt_pf.Rule.pass_all ] })))
          [ (1, 1); (2, 1); (1, 2); (2, 2) ])
      (List.init max_shards (fun i -> i + 1))
  in
  split :: sharded

let verify_all () =
  Newt_verify.Report.merge ~title:"all stack configurations"
    (verify_configs ())

(* {1 Recovery model checking — exhaustive crash-point search}

   For every (component × labeled recovery step) of a configuration,
   boot a fresh world under load, crash the component, and arm the
   one-shot injector so it dies again right after that step of its own
   recovery.  The verdict for each crash point folds together the
   reincarnation server's liveness view, the continuous verifier
   (static re-checks after every restart, sanitizer, leak accounting)
   and the protocol checker; the protocol event ring is the
   counterexample trace. *)

type 'w crash_search = {
  name : string;
  load : 'w Scenario.t;
  kill_at : Time.cycles;
  planes : Scenario.plane list;
  drained : bool;
}

let split_search ?(seed = 42) ?break_recovery () =
  {
    name = "split stack";
    (* A short device reset keeps each of the 16 cases cheap while
       still exercising the driver-reset recovery step. *)
    load =
      Scenario.v
        (Scenario.Split
           { Host.default_config with Host.seed; nic_reset_time = Time.of_seconds 0.2 })
        ~title:"mcheck"
        ~flows:[ Scenario.flow ~port:5001 (Time.of_seconds 2.2) ]
        ~horizon:(Time.of_seconds 3.4) ?break_recovery;
    kill_at = Time.of_seconds 0.6;
    (* Every killable component: the SYSCALL server is not part of the
       restart story (Section V-D). *)
    planes = [ `Tcp; `Udp; `Ip; `Pf; `Drv ];
    drained = true;
  }

let sharded_search ?break_recovery () =
  {
    name = "sharded N=2 r=2 pf=2";
    load =
      Scenario.v
        (Scenario.Sharded
           { Newt_scale.Sharded_stack.default_config with
             shards = 2; ip_replicas = 2; pf_shards = 2; pf_rules = Some [ Newt_pf.Rule.pass_all ] })
        ~title:"mcheck N=2 r=2 pf=2"
        ~flows:(List.init 4 (fun i -> Scenario.flow ~port:(5001 + i) (Time.of_seconds 0.8)))
        ~horizon:(Time.of_seconds 1.5) ?break_recovery;
    kill_at = Time.of_seconds 0.3;
    planes = [ `Tcp; `Ip; `Pf ];
    drained = false;
  }

let crash_points search =
  let probe = Scenario.build search.load in
  List.concat_map
    (fun plane ->
      List.map
        (fun name ->
          (name, Component.recovery_steps (Scenario.component probe name)))
        (Array.to_list (Scenario.members probe plane)))
    search.planes

let mcheck_case search (case : Mcheck.case) =
  Checker.bracket [ Checker.Protocol; Checker.Sanitizer ] (fun () ->
      let v = Continuous.create () in
      let w =
        Scenario.lower ~verify:v
          { search.load with kills = [ (search.kill_at, case.Mcheck.component) ] }
      in
      let comp = Scenario.component w case.Mcheck.component in
      Component.arm_crash_after comp ~step:case.Mcheck.step;
      Scenario.run w;
      (* A drained tail also gates leaks and open obligations; the
         sharded multi-flow tail is not guaranteed to drain in its short
         window, so there convergence, re-checks and hard protocol
         violations gate alone. *)
      let alive =
        if search.drained then Reincarnation.alive_check (Scenario.rs w)
        else List.for_all Component.alive (Scenario.components w)
      in
      (* The protocol event ring is the counterexample trace. *)
      let trace = Protocol.trace () in
      Continuous.end_run ~check_leaks:(search.drained && alive) v;
      let fail check detail =
        [
          {
            Newt_verify.Report.check;
            subject =
              Printf.sprintf "%s crashed after step %S" case.Mcheck.component case.Mcheck.step;
            culprit = case.Mcheck.component;
            detail;
          };
        ]
      in
      let viols =
        (if alive then []
         else fail "no-convergence" "component not back to responsive after the mid-recovery crash")
        @ (match Component.armed_crash comp with
          | None -> []
          | Some step ->
              fail "crash-point-not-reached"
                (Printf.sprintf "armed injector for step %S never fired during recovery" step))
        @ (Continuous.report ~title:"mcheck case" v).Newt_verify.Report.violations
      in
      let converged = viols = [] in
      {
        Mcheck.case;
        converged;
        violations = (if converged then [] else viols);
        trace = (if converged then [] else trace);
      })

let mcheck ?budget search =
  let cases = Mcheck.enumerate (crash_points search) in
  Mcheck.search ?budget ~cases ~run:(mcheck_case search) ()
