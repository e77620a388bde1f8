module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Series = Newt_sim.Series
module Component = Newt_stack.Component
module Sink = Newt_stack.Sink
module Syscall_srv = Newt_stack.Syscall_srv
module Iperf = Newt_sockets.Apps.Iperf
module Reincarnation = Newt_reliability.Reincarnation
module Topology = Newt_scale.Topology
module S = Newt_scale.Sharded_stack
module Continuous = Newt_verify.Continuous

type _ stack = Split : Host.config -> Host.t stack | Sharded : S.config -> S.t stack

type flow = { link : int; port : int; until : Time.cycles; pace : Time.cycles option }

let flow ?(link = 0) ?pace ~port until = { link; port; until; pace }

type plane = [ `Tcp | `Udp | `Ip | `Pf | `Drv ]
type sabotage = Wrong_core | Skip_republish

type 'w t = {
  stack : 'w stack;
  title : string;
  flows : flow list;
  kills : (Time.cycles * string) list;
  horizon : Time.cycles;
  break_recovery : (plane * sabotage) option;
}

let v ?(title = "") ?(flows = []) ?(kills = []) ?(horizon = 0) ?break_recovery stack =
  { stack; title; flows; kills; horizon; break_recovery }

type 'w world = {
  net : 'w;
  scenario : 'w t;
  machine : Newt_hw.Machine.t;
  sc : Syscall_srv.t;
  rs : Reincarnation.t;
  directory : Newt_channels.Pubsub.t;
  topology : Topology.t;
  app : unit -> Syscall_srv.app;
  sink : int -> Sink.t;
  sink_addr : int -> Newt_net.Addr.Ipv4.t;
  components : Component.t list;
  received : int array;
  bitrate : Series.t;
  mutable iperfs : Iperf.t array;
}

let net w = w.net
let rs w = w.rs
let components w = w.components
let received w i = w.received.(i)
let bitrate w = w.bitrate
let iperf w i = w.iperfs.(i)

let members w : plane -> string array = function
  | `Tcp -> w.topology.Topology.tcp
  | `Udp -> w.topology.Topology.udp
  | `Ip -> w.topology.Topology.ip
  | `Pf -> w.topology.Topology.pf
  | `Drv -> w.topology.Topology.drv

let component w name =
  match List.find_opt (fun c -> Component.name c = name) (components w) with
  | Some c -> c
  | None -> invalid_arg ("Scenario.component: no component " ^ name)

(* The sharding-affinity description of a wired sharded stack. *)
let sharded_spec s =
  let topo = S.topology s in
  let id producer consumer =
    Newt_channels.Sim_chan.id (S.channel s (Topology.key topo ~producer ~consumer))
  in
  let owner i = topo.Topology.ip.(Topology.owner topo i) in
  let matrix f = Array.map (fun ip -> Array.map (f ip) topo.Topology.pf) topo.Topology.ip in
  {
    Newt_verify.Static.shards = Array.length topo.Topology.tcp;
    replicas = Array.length topo.Topology.ip;
    rss_table = Newt_nic.Rss.table (Newt_scale.Shard_map.rss (S.shard_map s));
    shard_to_ip = Array.mapi (fun i tcp -> id tcp (owner i)) topo.Topology.tcp;
    ip_to_shard = Array.mapi (fun i tcp -> id (owner i) tcp) topo.Topology.tcp;
    replica_names = topo.Topology.ip;
    shard_names = topo.Topology.tcp;
    pf_shards = Array.length topo.Topology.pf;
    pf_names = topo.Topology.pf;
    ip_to_pf = matrix (fun ip pf -> id ip pf);
    pf_to_ip = matrix (fun ip pf -> id pf ip);
  }

let check (type w) (w : w world) ~title =
  let sharding =
    match w.scenario.stack with Split _ -> None | Sharded _ -> Some (sharded_spec w.net)
  in
  Newt_verify.Static.check ~directory:w.directory ?sharding ~title (components w)

(* The static checker re-runs against the LIVE topology after every
   reincarnation, re-derived from the directory and each component's
   republished exports: a recovery that comes up on the wrong core or
   loses a republish is caught when it happens, not at wiring time.
   Split-host titles carry the incarnation. *)
let recheck (type w) (w : w world) v =
  Reincarnation.set_on_reincarnated w.rs (fun comp ->
      Continuous.recheck v (fun () ->
          let name = Component.name comp in
          check w
            ~title:
              (match w.scenario.stack with
              | Split _ ->
                  Printf.sprintf "%s: after %s restart %d" w.scenario.title name
                    (Component.incarnation comp)
              | Sharded _ -> Printf.sprintf "%s: after %s restart" w.scenario.title name)))

let sabotage w (plane, kind) =
  let first p =
    match members w p with
    | [||] -> invalid_arg "Scenario: sabotage of an empty plane"
    | names -> component w names.(0)
  in
  let victim = first plane in
  match kind with
  | Wrong_core ->
      (* Land on the first IP member's core (every server has a channel
         with IP), or on the first TCP member's when the victim is IP. *)
      let occupied = Component.core (first (if plane = `Ip then `Tcp else `Ip)) in
      Component.on_restarted victim (fun () -> Component.migrate victim occupied)
  | Skip_republish ->
      (* Overwrite the first export with a dangling chan_id. Peers keep
         their attached endpoints, so only the republish re-check can
         catch it. *)
      Component.on_restarted victim (fun () ->
          match Component.exports victim with
          | (key, _) :: _ ->
              Newt_channels.Pubsub.publish w.directory ~key
                ~creator:(Component.pid victim) ~chan_id:(-1)
          | [] -> ())

let build (type w) ?verify (scenario : w t) : w world =
  let received = Array.make (List.length scenario.flows) 0 in
  let bitrate = Series.create ~bin_width:(Time.of_seconds 0.1) in
  let w : w world =
    match scenario.stack with
    | Split config ->
        let h = Host.create ~config () in
        {
          net = h; scenario; machine = Host.machine h;
          sc = Host.sc h; rs = Host.rs h; directory = Host.directory h;
          topology = Host.topology h; app = (fun () -> Host.app h);
          sink = Host.sink h; sink_addr = Host.sink_addr h;
          components = Host.components h;
          received; bitrate; iperfs = [||];
        }
    | Sharded config ->
        let s = S.create ~config () in
        {
          net = s; scenario; machine = S.machine s;
          sc = S.sc s; rs = S.rs s; directory = S.directory s;
          topology = S.topology s; app = (fun () -> S.app s);
          sink = (fun _ -> S.sink s); sink_addr = (fun _ -> S.sink_addr s);
          components = S.components s;
          received; bitrate; iperfs = [||];
        }
  in
  Option.iter (recheck w) verify;
  Option.iter (sabotage w) scenario.break_recovery;
  w

let engine w = Newt_hw.Machine.engine w.machine

let start w =
  let flows = Array.of_list w.scenario.flows in
  Array.iteri
    (fun i f ->
      Sink.sink_tcp (w.sink f.link) ~port:f.port ~on_bytes:(fun ~at n ->
          w.received.(i) <- w.received.(i) + n;
          Series.add w.bitrate at n))
    flows;
  w.iperfs <-
    Array.map
      (fun f ->
        Iperf.start w.machine ~sc:w.sc ~app:(w.app ()) ~dst:(w.sink_addr f.link)
          ~port:f.port ?pace:f.pace ~until:f.until ())
      flows;
  List.iter
    (fun (time, name) ->
      ignore
        (Engine.schedule_at (engine w) time (fun () ->
             Reincarnation.kill w.rs (component w name))))
    w.scenario.kills

let lower ?verify scenario =
  let w = build ?verify scenario in
  start w;
  w

let run w = Engine.run ~until:w.scenario.horizon (engine w)

let close ?verify w ~until ~check_leaks =
  Option.iter
    (fun v ->
      Engine.run ~until (engine w);
      Continuous.end_run ~check_leaks v)
    verify
