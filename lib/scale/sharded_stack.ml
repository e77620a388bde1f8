module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Trace = Newt_sim.Trace
module Machine = Newt_hw.Machine
module Cpu = Newt_hw.Cpu
module Registry = Newt_channels.Registry
module Sim_chan = Newt_channels.Sim_chan
module Pubsub = Newt_channels.Pubsub
module Rich_ptr = Newt_channels.Rich_ptr
module Addr = Newt_net.Addr
module Tcp = Newt_net.Tcp
module Link = Newt_nic.Link
module Mq = Newt_nic.Mq_e1000
module Rule = Newt_pf.Rule
module Pf_engine = Newt_pf.Pf_engine
module Conntrack = Newt_pf.Conntrack
module Component = Newt_stack.Component
module Mq_drv_srv = Newt_stack.Mq_drv_srv
module Ip_srv = Newt_stack.Ip_srv
module Pf_srv = Newt_stack.Pf_srv
module Tcp_srv = Newt_stack.Tcp_srv
module Udp_srv = Newt_stack.Udp_srv
module Syscall_srv = Newt_stack.Syscall_srv
module Sink = Newt_stack.Sink
module Storage = Newt_reliability.Storage
module Reincarnation = Newt_reliability.Reincarnation

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;
  shards : int;
  udp_shards : int;
  ip_replicas : int;
  pf_shards : int;
  link_gbps : float;
  pf_rules : Rule.t list option;
  tcp_config : Tcp.config option;
  conntrack_total : int;
  nic_reset_time : Time.cycles;
  heartbeat_period : Time.cycles;
  restart_delay : Time.cycles;
}

let default_config =
  {
    seed = 42;
    costs = Newt_hw.Costs.default;
    shards = 4;
    udp_shards = 1;
    ip_replicas = 1;
    pf_shards = 1;
    link_gbps = 40.0;
    pf_rules = None;
    tcp_config = None;
    conntrack_total = 65536;
    nic_reset_time = Time.of_seconds 1.2;
    heartbeat_period = Component.Defaults.heartbeat_period;
    restart_delay = Component.Defaults.restart_delay;
  }


(* The canonical flow key of the steering journal — the same
   canonicalization the RSS hash applies, so both directions of a flow
   share one entry. *)
type flow_key = int * int * int * int

let ip_int a = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFFFFFF

let flow_key src sport dst dport : flow_key =
  let a = (ip_int src, sport) and b = (ip_int dst, dport) in
  let (i1, p1), (i2, p2) = if a <= b then (a, b) else (b, a) in
  (i1, p1, i2, p2)

(* ARP learn-broadcast encoding: the binding rides the channel
   directory, the 48-bit MAC packed into the [chan_id] field and the
   protocol address in the key. *)
let mac_to_int m =
  Array.fold_left (fun acc o -> (acc lsl 8) lor o) 0 (Addr.Mac.to_octets m)

let mac_of_int v =
  Addr.Mac.of_octets (Array.init 6 (fun i -> (v lsr ((5 - i) * 8)) land 0xFF))

let arp_key ~iface addr = Printf.sprintf "arp.%d.%s" iface (Addr.Ipv4.to_string addr)

(* The PF ruleset rides the directory the same way: a publication under
   this key is the "new configuration" broadcast — the blob itself
   lives in the shared storage namespace, the [chan_id] carries a
   version counter. Every PF shard applies it on publish and replays it
   on restart. *)
let pf_rules_key = "pf.rules"

type t = {
  config : config;
  engine : Engine.t;
  machine : Machine.t;
  directory : Pubsub.t;
  rs : Reincarnation.t;
  sm : Shard_map.t;
  stack : Topology.stack;
  tcp_set : Tcp_srv.t Replica_set.t;
  udp_set : Udp_srv.t Replica_set.t;
  ip_set : Ip_srv.t Replica_set.t;
  pf_set : Pf_srv.t Replica_set.t option;
  nic : Mq.t;
  sink : Sink.t;
  (* Violations seen by IP's half of the affinity journal (the NIC keeps
     its own) — one journal for all replicas: shard affinity implies
     replica affinity. *)
  ip_violations : int ref;
  mutable next_app_pid : int;
}

let engine t = t.engine
let machine t = t.machine
let sc t = t.stack.Topology.sc
let tcp_shard t i = Replica_set.srv t.tcp_set i
let ip_replica t k = Replica_set.srv t.ip_set k
let nic t = t.nic
let sink t = t.sink
let shard_map t = t.sm
let directory t = t.directory
let topology t = t.stack.Topology.topology
let channel t key = Topology.chan t.stack key
let pf_components t =
  match t.pf_set with Some s -> Replica_set.comps s | None -> [||]

let pf_shard_count t =
  match t.pf_set with Some s -> Replica_set.size s | None -> 0

let pf_of t =
  match t.pf_set with
  | Some s -> s
  | None -> invalid_arg "Sharded_stack: no packet filter configured"

let pf_shard t j = Replica_set.srv (pf_of t) j

let components t =
  (Syscall_srv.comp (sc t) :: Array.to_list (pf_components t))
  @ Array.to_list t.stack.Topology.drvs
  @ Array.to_list (Replica_set.comps t.tcp_set)
  @ Array.to_list (Replica_set.comps t.udp_set)
  @ Array.to_list (Replica_set.comps t.ip_set)

let local_addr _t = Addr.Ipv4.v 10 0 0 1
let sink_addr _t = Addr.Ipv4.v 10 0 0 2

let run t ~until = Engine.run ~until t.engine
let at t when_ f = ignore (Engine.schedule_at t.engine when_ f)

(* Every saturating sender gets a core of its own: two senders
   timesharing one core would pay a full context switch per write,
   which is the workload's bottleneck, not the stack's. *)
let app t =
  let core = Machine.add_timeshared_core t.machine in
  let pid = t.next_app_pid in
  t.next_app_pid <- pid + 1;
  { Syscall_srv.app_core = core; app_pid = pid }

let rs t = t.rs
let kill_shard t i = Replica_set.kill t.tcp_set i
let shard_restarts t i = Replica_set.restarts t.tcp_set i
let kill_ip_replica t k = Replica_set.kill t.ip_set k
let ip_replica_restarts t k = Replica_set.restarts t.ip_set k
let kill_pf_shard t j = Replica_set.kill (pf_of t) j
let pf_shard_restarts t j = Replica_set.restarts (pf_of t) j

type shard_stats = {
  shard : int;
  flows : int;
  segs_out : int;
  bytes_out : int;
  queue_depth : int;
  core_util : float;
  restarts : int;
}

(* The IP→shard channel of transport shard [i]. *)
let delivery_key t i =
  let topo = topology t in
  Topology.key topo
    ~producer:topo.Topology.ip.(Topology.owner topo i)
    ~consumer:topo.Topology.tcp.(i)

let shard_stats t =
  let now = Engine.now t.engine in
  Array.mapi
    (fun i srv ->
      {
        shard = i;
        flows = Tcp.connection_count (Tcp_srv.engine srv);
        (* Lifetime counters: the banked totals survive shard restarts,
           so a reincarnated shard neither double-counts nor resets. *)
        segs_out = Tcp_srv.total_segs_out srv;
        bytes_out = Tcp_srv.total_bytes_out srv;
        queue_depth = Sim_chan.length (channel t (delivery_key t i));
        core_util = Cpu.utilization (Component.core (Replica_set.comp t.tcp_set i)) ~now;
        restarts = shard_restarts t i;
      })
    (Replica_set.servers t.tcp_set)

type pf_shard_stats = {
  pf_shard : int;
  verdicts : int;
  pf_blocked : int;
  expired : int;
  entries : int;
  half_open : int;
  evicted_half_open : int;
  evicted_established : int;
  pf_restarts : int;
}

let pf_shard_stats t =
  match t.pf_set with
  | None -> [||]
  | Some pfs ->
      Array.mapi
        (fun j srv ->
          {
            pf_shard = j;
            verdicts = Pf_srv.verdicts_issued srv;
            pf_blocked = Pf_srv.blocked srv;
            expired = Pf_srv.conntrack_expired srv;
            entries = Conntrack.size (Pf_engine.conntrack (Pf_srv.engine_of srv));
            half_open =
              Conntrack.half_open_count
                (Pf_engine.conntrack (Pf_srv.engine_of srv));
            evicted_half_open = Pf_srv.evicted_half_open srv;
            evicted_established = Pf_srv.evicted_established srv;
            pf_restarts = Replica_set.restarts pfs j;
          })
        (Replica_set.servers pfs)

(* Every replication plane of the stack, with its load metric — the
   whole-stack view the imbalance/rebalance accounting folds over. *)
let planes t =
  [
    Replica_set.plane t.tcp_set;
    Replica_set.plane t.udp_set;
    Replica_set.plane t.ip_set;
  ]
  @ (match t.pf_set with Some s -> [ Replica_set.plane s ] | None -> [])

let imbalance_ratio t =
  let nic = Shard_map.imbalance ~loads:(Array.map float_of_int (Mq.rx_queue_packets t.nic)) in
  List.fold_left
    (fun acc p -> Float.max acc (Replica_set.plane_imbalance p))
    nic (planes t)

let steering_violations t = Mq.steering_violations t.nic + !(t.ip_violations)

let rebalance t =
  (* Project every plane's observed load — not just the TCP shards' —
     onto the RSS buckets, so a hot PF shard or IP replica also pulls
     the indirection table toward balance. *)
  let loads = Replica_set.projected_loads ~shards:t.config.shards (planes t) in
  Shard_map.rebalance t.sm ~loads

(* {2 Construction} *)

let topology_of config =
  {
    Topology.tcp = Topology.indexed "tcp" config.shards;
    udp = Topology.indexed "udp" config.udp_shards;
    ip = Topology.members "ip" config.ip_replicas;
    pf =
      (match config.pf_rules with
      | None -> [||]
      | Some _ -> Topology.members "pf" config.pf_shards);
    drv = [| "mqdrv" |];
  }

let create ?(config = default_config) () =
  (match
     Topology.validate ~shards:config.shards ~udp_shards:config.udp_shards
       ~ip_replicas:config.ip_replicas ~pf_shards:config.pf_shards ()
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sharded_stack: " ^ msg));
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create ~costs:config.costs engine in
  let registry = Registry.create () in
  let trace = Trace.create () in
  let directory = Pubsub.create () in
  let storage = Storage.create () in
  let n = config.shards
  and nu = config.udp_shards
  and r = config.ip_replicas in
  let topo = topology_of config in
  let sm = Shard_map.create ~seed:config.seed ~shards:n () in
  (* One fat wire, a multi-queue device on our side, an ideal peer on
     the other. *)
  let link =
    Link.create engine
      ~bandwidth_bps:(int_of_float (config.link_gbps *. 1e9))
      ~queue_frames:1024 ()
  in
  let nic =
    Mq.create engine ~registry ~link ~side:Link.Left
      ~mac:(Addr.Mac.of_index 100) ~rss:(Shard_map.rss sm)
      ~reset_time:config.nic_reset_time ()
  in
  let sink =
    Sink.create engine ~link ~side:Link.Right ~addr:(Addr.Ipv4.v 10 0 0 2)
      ~mac:(Addr.Mac.of_index 200) ()
  in
  (* Every member gets a storage namespace of its own; the PF ruleset is
     one shared configuration blob, the conntrack snapshot is per
     shard. *)
  let pf_shared_save, pf_shared_load = Storage.owner_view storage ~owner:"pf" in
  let store name =
    let save, load = Storage.owner_view storage ~owner:name in
    if Array.mem name topo.Topology.pf then
      ( (fun k v -> if k = "rules" then pf_shared_save k v else save k v),
        fun k -> if k = "rules" then pf_shared_load k else load k )
    else (save, load)
  in
  (* The shared steering function, with IP's half of the affinity
     journal wrapped around it. The partition functions of the
     transport, IP and PF planes all divide the same [Shard_map] value,
     so every layer agrees where a flow lives. *)
  let steer_journal : (flow_key, int) Hashtbl.t = Hashtbl.create 64 in
  let ip_violations = ref 0 in
  let steer_tcp ~src ~sport ~dst ~dport =
    let s = Shard_map.shard_of sm ~src ~sport ~dst ~dport in
    let key = flow_key src sport dst dport in
    (match Hashtbl.find_opt steer_journal key with
    | None -> Hashtbl.replace steer_journal key s
    | Some s' when s' = s -> ()
    | Some _ ->
        incr ip_violations;
        Hashtbl.replace steer_journal key s);
    s
  in
  let steer_udp ~src ~sport ~dst ~dport =
    Shard_map.shard_of sm ~src ~sport ~dst ~dport mod nu
  in
  let chan_ids = ref 0 in
  let chan _key =
    incr chan_ids;
    Sim_chan.create ~capacity:8192 ~id:!chan_ids ()
  in
  (* The interface: one MQ driver serving all queues, fanning RX
     completions out to the replica that owns each queue (queue [q]
     belongs to replica [q mod r]). With a single instance the whole
     device belongs to it, and a crash resets the device as before;
     with replicas a crash fences only the dead replica's queues. *)
  let driver _ comp =
    let drv = Mq_drv_srv.create comp ~nic () in
    Mq_drv_srv.set_replicas drv r;
    fun ~ip:k ->
      {
        Topology.iface =
          { Ip_srv.addr = Addr.Ipv4.v 10 0 0 1; netmask_bits = 24; mac = Mq.mac nic };
        peer = (Addr.Ipv4.v 10 0 0 2, Addr.Mac.of_index 200);
        hooks = Mq_drv_srv.hooks drv ~replica:k;
      }
  in
  let stack =
    Topology.build topo machine ~registry ~directory ~trace ~store
      ~local_addr:(Addr.Ipv4.v 10 0 0 1) ?tcp_config:config.tcp_config
      ~conntrack_total:config.conntrack_total ~steer_tcp ~steer_udp
      ~steer_pf:(Shard_map.shard_of sm) ~order:[ `Sc; `Ip; `Pf; `Drv; `Tcp; `Udp ]
      ~chan ~driver ()
  in
  let sc_srv = stack.Topology.sc in
  let tcps = stack.Topology.tcps in
  let ips = stack.Topology.ips in
  let tcp_set = Replica_set.of_servers ~name:"tcp" ~comp:Tcp_srv.comp tcps in
  let udp_set =
    Replica_set.of_servers ~name:"udp" ~comp:Udp_srv.comp stack.Topology.udps
  in
  let ip_set = Replica_set.of_servers ~name:"ip" ~comp:Ip_srv.comp ips in
  let pf_set =
    match config.pf_rules with
    | None -> None
    | Some _ ->
        Some (Replica_set.of_servers ~name:"pf" ~comp:Pf_srv.comp stack.Topology.pfs)
  in
  (* Per-plane load metrics, for whole-stack imbalance accounting. *)
  Replica_set.set_load tcp_set (fun srv ->
      float_of_int (Tcp_srv.total_bytes_out srv));
  Replica_set.set_load udp_set (fun srv ->
      float_of_int (Udp_srv.datagrams_out srv));
  Replica_set.set_load ip_set (fun srv ->
      float_of_int (Ip_srv.packets_forwarded srv));
  Option.iter
    (fun pfs ->
      Replica_set.set_load pfs (fun srv ->
          float_of_int (Pf_srv.verdicts_issued srv)))
    pf_set;
  (* PF rules ride the channel directory as a versioned broadcast: the
     blob is saved once in the shared namespace, every shard applies it
     on publish, and a reincarnated shard replays the publication (its
     own restore-state hook reads the same shared blob, so the replay
     is the belt to that suspender). Conntrack recovery reads the union
     of the transports' connection tables, filtered by each shard's
     ownership predicate. *)
  let pf_rule_version = ref 0 in
  let publish_pf_rules rules =
    pf_shared_save "rules" (Marshal.to_string (rules : Rule.t list) []);
    incr pf_rule_version;
    Pubsub.publish directory ~key:pf_rules_key ~creator:(-1)
      ~chan_id:!pf_rule_version
  in
  Array.iter
    (fun pf ->
      Pf_srv.set_conntrack_sources pf
        ~tcp:(fun () -> Array.to_list tcps |> List.concat_map Tcp_srv.conntrack_flows)
        ~udp:(fun () ->
          Array.to_list stack.Topology.udps |> List.concat_map Udp_srv.conntrack_flows);
      let apply = function
        | `Published _ -> (
            match pf_shared_load "rules" with
            | Some blob ->
                Pf_engine.set_rules (Pf_srv.engine_of pf)
                  (Marshal.from_string blob 0 : Rule.t list)
            | None -> ())
        | `Gone -> ()
      in
      Pubsub.subscribe_prefix directory ~prefix:pf_rules_key apply;
      Component.on_restart (Pf_srv.comp pf) ~step:"replay-rules" (fun ~fresh:_ ->
          Pubsub.replay_prefix directory ~prefix:pf_rules_key apply))
    stack.Topology.pfs;
  Option.iter publish_pf_rules config.pf_rules;
  (* New sockets round-robin over the shards; the chosen shard then
     picks a source port that hashes back to itself, so any placement
     preserves flow affinity. *)
  let next_tcp_sock = ref 0 and next_udp_sock = ref 0 in
  Syscall_srv.set_placement sc_srv (fun ~transport ->
      match transport with
      | `Tcp ->
          let s = !next_tcp_sock mod n in
          incr next_tcp_sock;
          s
      | `Udp ->
          let s = !next_udp_sock mod nu in
          incr next_udp_sock;
          s);
  (* Shard affinity for active opens: shard [i] only uses source ports
     that the RSS table maps to queue [i], skipping ports its engine
     already has bound to the same destination; exhaustion of the whole
     range is a hard connect error, not a silent wrong-queue open. *)
  Array.iteri
    (fun i srv ->
      Tcp_srv.set_port_select srv (fun ~src ~dst ~dst_port ->
          let in_use port =
            Tcp.port_in_use (Tcp_srv.engine srv) ~local_ip:src ~port
              ~remote_ip:dst ~remote_port:dst_port
          in
          match
            Shard_map.port_for_shard sm ~in_use ~shard:i ~src ~dst ~dst_port ()
          with
          | Ok p -> `Port p
          | Error `Exhausted -> `Exhausted))
    tcps;
  (* Self-originated frames (ARP, ICMP) go out on one of each replica's
     own queues, so the TX confirm returns there. *)
  Array.iteri (fun k ip -> Ip_srv.set_local_queue ip k) ips;
  (* ARP learn-broadcast (replicated IP only): whichever replica's
     queue a reply or request lands on announces the binding in the
     channel directory; every replica — including a later restarted
     incarnation, via replay — folds it into its own cache. Inserting
     a learned binding never re-announces, so there is no loop. *)
  let learn k = function
    | `Published { Pubsub.key; creator = _; chan_id } -> (
        try
          Scanf.sscanf key "arp.%d.%s" (fun ifc ip_s ->
              match Addr.Ipv4.of_string ip_s with
              | Some addr ->
                  Ip_srv.add_neighbor ips.(k) ~iface:ifc addr (mac_of_int chan_id)
              | None -> ())
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
    | `Gone -> ()
  in
  if r > 1 then begin
    (* The statically configured peer is announced too, so replay after
       a restart re-seeds it without waiting for a resolution. *)
    Pubsub.publish directory
      ~key:(arp_key ~iface:0 (Addr.Ipv4.v 10 0 0 2))
      ~creator:(-1)
      ~chan_id:(mac_to_int (Addr.Mac.of_index 200));
    Array.iteri
      (fun k ip ->
        Ip_srv.set_arp_announce ip (fun ~iface addr mac ->
            Pubsub.publish directory ~key:(arp_key ~iface addr) ~creator:k
              ~chan_id:(mac_to_int mac));
        Pubsub.subscribe_prefix directory ~prefix:"arp." (learn k);
        (* A reincarnated replica comes up with a flushed cache; the
           directory still holds everything the group has learned. *)
        Component.on_restart (Ip_srv.comp ip) ~step:"replay-arp" (fun ~fresh:_ ->
            Pubsub.replay_prefix directory ~prefix:"arp." (learn k)))
      ips
  end;
  (* A transport shard frees its receive buffers to the fixed replica
     that serves its requests, but the frame arrived via whichever
     replica owns the flow's queue — hand such buffers back to the
     pool's owner. *)
  let return_buf buf =
    let pool = buf.Rich_ptr.pool in
    Array.iter
      (fun ip -> if Ip_srv.rx_pool_id ip = pool then Ip_srv.release_held ip buf)
      ips
  in
  Array.iter (fun ip -> Ip_srv.set_buf_return ip return_buf) ips;
  (* Supervision: every plane's members recover independently. *)
  let rs =
    Reincarnation.create machine ~heartbeat_period:config.heartbeat_period
      ~restart_delay:config.restart_delay ()
  in
  Topology.supervise stack rs;
  Replica_set.attach tcp_set rs;
  Replica_set.attach udp_set rs;
  Replica_set.attach ip_set rs;
  Option.iter (fun pfs -> Replica_set.attach pfs rs) pf_set;
  Reincarnation.start rs;
  {
    config;
    engine;
    machine;
    directory;
    rs;
    sm;
    stack;
    tcp_set;
    udp_set;
    ip_set;
    pf_set;
    nic;
    sink;
    ip_violations;
    next_app_pid = 10_000;
  }
