module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Trace = Newt_sim.Trace
module Machine = Newt_hw.Machine
module Registry = Newt_channels.Registry
module Sim_chan = Newt_channels.Sim_chan
module Addr = Newt_net.Addr
module Tcp = Newt_net.Tcp
module Link = Newt_nic.Link
module Mq = Newt_nic.Mq_e1000
module Rule = Newt_pf.Rule
module Proc = Newt_stack.Proc
module Component = Newt_stack.Component
module Drv_srv = Newt_stack.Drv_srv
module Ip_srv = Newt_stack.Ip_srv
module Pf_srv = Newt_stack.Pf_srv
module Tcp_srv = Newt_stack.Tcp_srv
module Udp_srv = Newt_stack.Udp_srv
module Syscall_srv = Newt_stack.Syscall_srv
module Sink = Newt_stack.Sink
module Storage = Newt_reliability.Storage
module Reincarnation = Newt_reliability.Reincarnation
module Topology = Newt_scale.Topology
module Fault_inject = Newt_reliability.Fault_inject

type component = C_tcp | C_udp | C_ip | C_pf | C_drv of int

let component_name = function
  | C_tcp -> "tcp"
  | C_udp -> "udp"
  | C_ip -> "ip"
  | C_pf -> "pf"
  | C_drv i -> Printf.sprintf "drv%d" i

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;
  nics : int;
  pf_rules : Rule.t list;
  pf_shards : int;
  tcp_config : Tcp.config option;
  nic_reset_time : Time.cycles;
  heartbeat_period : Time.cycles;
  restart_delay : Time.cycles;
  app_cores : int;
  coalesce_drivers : bool;
}

let default_config =
  {
    seed = 42;
    costs = Newt_hw.Costs.default;
    nics = 1;
    pf_rules = [ Rule.pass_all ];
    pf_shards = 1;
    tcp_config = None;
    nic_reset_time = Time.of_seconds 1.2;
    heartbeat_period = Component.Defaults.heartbeat_period;
    restart_delay = Component.Defaults.restart_delay;
    app_cores = 2;
    coalesce_drivers = false;
  }

type t = {
  topology : Topology.t;
  engine : Engine.t;
  machine : Machine.t;
  trace : Trace.t;
  directory : Newt_channels.Pubsub.t;
  storage : Storage.t;
  rs : Reincarnation.t;
  sc : Syscall_srv.t;
  tcp : Tcp_srv.t;
  udp : Udp_srv.t;
  ip : Ip_srv.t;
  pfs : Pf_srv.t array;
  pf_comps : Component.t array;
  nics : Mq.t array;
  links : Link.t array;
  sinks : Sink.t array;
  sc_comp : Component.t;
  comps : (component * Component.t) list;
  app_cores : Newt_hw.Cpu.t array;
  mutable next_app : int;
  mutable next_app_pid : int;
  mutable frozen : bool;
  (* Components whose next automatic restart must come up broken
     (Section VI-B's manual-intervention cases). *)
  mutable broken_next_restart : component list;
}

let topology t = t.topology
let engine t = t.engine
let machine t = t.machine
let sc t = t.sc
let tcp_srv t = t.tcp
let ip_srv t = t.ip
let pf_srv t = t.pfs.(0)
let pf_shard_srv t j = t.pfs.(j)
let pf_shard_count t = Array.length t.pfs
let rs t = t.rs
let storage t = t.storage
let nic t i = t.nics.(i)
let link t i = t.links.(i)
let sink t i = t.sinks.(i)
let frozen t = t.frozen

let directory t = t.directory
let trace t = t.trace

let comp_of t comp =
  match List.find_opt (fun (c, _) -> c = comp) t.comps with
  | Some (_, c) -> c
  | None -> invalid_arg "Host.comp_of: unknown component"

let proc_of t comp = Component.proc (comp_of t comp)

let components t =
  (* [comps] names one killable component per variant, so extra PF
     shards (index >= 1) ride along separately for the verifier. *)
  let extra_pfs =
    Array.to_list
      (Array.sub t.pf_comps 1 (max 0 (Array.length t.pf_comps - 1)))
  in
  (t.sc_comp :: List.map snd t.comps) @ extra_pfs

let local_addr _t i = Addr.Ipv4.v 10 0 i 1
let sink_addr _t i = Addr.Ipv4.v 10 0 i 2

let app t =
  let core = t.app_cores.(t.next_app mod Array.length t.app_cores) in
  t.next_app <- t.next_app + 1;
  let pid = t.next_app_pid in
  t.next_app_pid <- pid + 1;
  { Syscall_srv.app_core = core; app_pid = pid }

let run t ~until = Engine.run ~until t.engine

let at t when_ f =
  ignore (Engine.schedule_at t.engine when_ f)

(* {2 Construction} *)

let chan_ids = ref 0

(* Queue slots are cheap shared memory; size them so a full multi-flow
   congestion-window burst (5 links x ~256 KiB of 1460-byte segments)
   never overflows a channel — a drop costs the flow an RTO. *)
let chan _key =
  incr chan_ids;
  Sim_chan.create ~capacity:8192 ~id:!chan_ids ()

let create ?(config = default_config) () =
  (match Topology.validate ~pf_shards:config.pf_shards () with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Host.create: " ^ msg));
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create ~costs:config.costs engine in
  let registry = Registry.create () in
  let trace = Trace.create () in
  let directory = Newt_channels.Pubsub.create () in
  let storage = Storage.create () in
  (* Devices, links and remote peers. *)
  let links =
    Array.init config.nics (fun _ -> Link.create engine ())
  in
  let nics =
    Array.init config.nics (fun i ->
        Mq.create engine ~registry ~link:links.(i) ~side:Link.Left
          ~mac:(Addr.Mac.of_index (100 + i)) ~rss:(Newt_nic.Rss.create ~queues:1 ())
          ~reset_time:config.nic_reset_time ())
  in
  let sinks =
    Array.init config.nics (fun i ->
        Sink.create engine ~link:links.(i) ~side:Link.Right
          ~addr:(Addr.Ipv4.v 10 0 i 2)
          ~mac:(Addr.Mac.of_index (200 + i))
          ())
  in
  (* The split stack of Figure 3: one server per layer, one driver per
     NIC. One PF shard keeps the singleton filter's name "pf". *)
  let topo =
    {
      Topology.tcp = [| "tcp" |];
      udp = [| "udp" |];
      ip = [| "ip" |];
      pf = Topology.members "pf" config.pf_shards;
      drv = Topology.indexed "drv" config.nics;
    }
  in
  (* Cores: one dedicated per OS component (Figure 1), or one shared by
     every driver. *)
  let drv_core = lazy (Machine.add_dedicated_core machine) in
  let core name =
    if config.coalesce_drivers && Array.mem name topo.Topology.drv then
      Lazy.force drv_core
    else Machine.add_dedicated_core machine
  in
  let driver i comp =
    let drv = Drv_srv.create comp ~nic:nics.(i) () in
    fun ~ip:_ ->
      {
        Topology.iface =
          { Ip_srv.addr = Addr.Ipv4.v 10 0 i 1; netmask_bits = 24; mac = Mq.mac nics.(i) };
        hooks = Drv_srv.hooks drv;
        peer = (Addr.Ipv4.v 10 0 i 2, Addr.Mac.of_index (200 + i));
      }
  in
  let pf_map =
    Newt_scale.Shard_map.create ~seed:config.seed ~shards:config.pf_shards ()
  in
  let stack =
    Topology.build topo machine ~registry ~directory ~trace ~core
      ~store:(fun name -> Storage.owner_view storage ~owner:name)
      ~local_addr:(Addr.Ipv4.v 10 0 0 1) ?tcp_config:config.tcp_config
      ~steer_pf:(Newt_scale.Shard_map.shard_of pf_map)
      ~chan ~driver ()
  in
  let app_cores = Array.init config.app_cores (fun _ -> Machine.add_timeshared_core machine) in
  let tcp_srv = stack.Topology.tcps.(0)
  and udp_srv = stack.Topology.udps.(0)
  and ip_srv = stack.Topology.ips.(0)
  and pf_srvs = stack.Topology.pfs in
  (* Multihoming: transports pick the source address of the interface
     the route uses. *)
  let src_select dst =
    match Ip_srv.src_addr_for ip_srv dst with
    | Some a -> a
    | None -> Addr.Ipv4.v 10 0 0 1
  in
  Tcp_srv.set_src_select tcp_srv src_select;
  Udp_srv.set_src_select udp_srv src_select;
  (* The filter configuration — one ruleset on every shard. *)
  Array.iter
    (fun pf ->
      Pf_srv.set_rules pf config.pf_rules;
      Pf_srv.set_conntrack_sources pf
        ~tcp:(fun () -> Tcp_srv.conntrack_flows tcp_srv)
        ~udp:(fun () -> Udp_srv.conntrack_flows udp_srv))
    pf_srvs;
  let drv_comps = stack.Topology.drvs in
  let t =
    {
      topology = topo;
      engine;
      machine;
      trace;
      directory;
      storage;
      rs = Reincarnation.create machine ~heartbeat_period:config.heartbeat_period
          ~restart_delay:config.restart_delay ();
      sc = stack.Topology.sc;
      tcp = tcp_srv;
      udp = udp_srv;
      ip = ip_srv;
      pfs = pf_srvs;
      pf_comps = Array.map Pf_srv.comp pf_srvs;
      nics;
      links;
      sinks;
      sc_comp = Syscall_srv.comp stack.Topology.sc;
      comps =
        [
          (C_tcp, Tcp_srv.comp tcp_srv);
          (C_udp, Udp_srv.comp udp_srv);
          (C_ip, Ip_srv.comp ip_srv);
          (C_pf, Pf_srv.comp pf_srvs.(0));
        ]
        @ Array.to_list (Array.mapi (fun i c -> (C_drv i, c)) drv_comps);
      app_cores;
      next_app = 0;
      next_app_pid = 10_000;
      frozen = false;
      broken_next_restart = [];
    }
  in
  let broken comp =
    if List.mem comp t.broken_next_restart then begin
      t.broken_next_restart <-
        List.filter (fun c -> c <> comp) t.broken_next_restart;
      true
    end
    else false
  in
  (* The broken-recovery hooks run after the server's own recovery (the
     component comes up, but its restored state is bad — Section VI-B's
     manual-restart cases). Hook registration order guarantees this:
     the servers registered their recovery at [create]. *)
  Component.on_restart (Tcp_srv.comp tcp_srv) (fun ~fresh:_ ->
      if broken C_tcp then begin
        let eng = Tcp_srv.engine tcp_srv in
        List.iter (fun port -> Tcp.unlisten eng ~port) (Tcp.listening_ports eng)
      end);
  Component.on_restart (Ip_srv.comp ip_srv) (fun ~fresh:_ ->
      if broken C_ip then Ip_srv.clear_routes ip_srv);
  Array.iteri
    (fun i c ->
      Component.on_restart c (fun ~fresh:_ ->
          if broken (C_drv i) then Mq.misconfigure nics.(i)))
    drv_comps;
  (* Supervision with neighbour notifications (Section IV-D). *)
  Topology.supervise stack t.rs;
  Reincarnation.start t.rs;
  t

(* {2 Continuous verification} *)

let on_reincarnated t f = Reincarnation.set_on_reincarnated t.rs f

(* {2 Faults} *)

let kill_component t comp = Reincarnation.kill t.rs (comp_of t comp)
let hang_component t comp = Component.hang (comp_of t comp)

let component_of_target = function
  | Fault_inject.T_tcp -> C_tcp
  | Fault_inject.T_udp -> C_udp
  | Fault_inject.T_ip -> C_ip
  | Fault_inject.T_pf -> C_pf
  | Fault_inject.T_drv i -> C_drv i

let component_of_injection (inj : Fault_inject.injection) =
  component_of_target inj.Fault_inject.target

let live_update t comp =
  (* A pause, not a replacement: stop draining for 50 ms, then bump
     the version counter. Channels stay established; messages queue. *)
  let p = proc_of t comp in
  Proc.begin_update p;
  ignore
    (Engine.schedule t.engine (Time.of_seconds 0.05) (fun () ->
         Proc.finish_update p))

let crash_storage t =
  Storage.crash t.storage;
  (* The restarted storage server announces itself; every component
     persists its state anew. *)
  Ip_srv.repersist t.ip;
  Array.iter Pf_srv.repersist t.pfs;
  Tcp_srv.repersist t.tcp;
  Udp_srv.repersist t.udp

(* Restarting a driver resets its device, which also clears a
   misconfiguration (Section VI-B). *)
let manual_restart t comp = kill_component t comp

let inject t (inj : Fault_inject.injection) =
  let comp = component_of_target inj.Fault_inject.target in
  match inj.Fault_inject.effect with
  | Fault_inject.Crash -> kill_component t comp
  | Fault_inject.Hang -> hang_component t comp
  | Fault_inject.Misconfigure_device -> (
      match comp with
      | C_drv i -> Mq.misconfigure t.nics.(i)
      | C_tcp | C_udp | C_ip | C_pf -> kill_component t comp)
  | Fault_inject.Broken_recovery ->
      t.broken_next_restart <- comp :: t.broken_next_restart;
      kill_component t comp
  | Fault_inject.Sync_hang ->
      (* The fault propagated into the unconverted synchronous part of
         the system (the select/file-descriptor merge): everything
         stalls; only a reboot helps (3 runs in Section VI-B). *)
      t.frozen <- true;
      Proc.hang (Syscall_srv.proc t.sc)

let restarts_of t comp = Reincarnation.restarts_of t.rs (comp_of t comp)

(* {2 Probes} *)

let probe_reachable t ~port ~timeout k =
  let sink = t.sinks.(0) in
  let pcb = Sink.connect sink ~dst:(local_addr t 0) ~dst_port:port in
  let answered = ref false in
  Tcp.set_handler pcb (fun ev ->
      match ev with
      | Tcp.Connected ->
          if not !answered then begin
            answered := true;
            Tcp.abort pcb;
            k true
          end
      | Tcp.Reset ->
          if not !answered then begin
            answered := true;
            k false
          end
      | Tcp.Accepted | Tcp.Readable | Tcp.Writable | Tcp.Closed_normally -> ());
  ignore
    (Engine.schedule t.engine timeout (fun () ->
         if not !answered then begin
           answered := true;
           Tcp.abort pcb;
           k false
         end))
