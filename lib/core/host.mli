(** A complete NewtOS host under test, wired to ideal remote peers.

    This is the library's top-level entry point: it builds the machine
    (one dedicated core per OS component, timeshared application cores),
    the full split networking stack of Figure 3 (SYSCALL, TCP, UDP, IP,
    PF, one driver per NIC), one-queue PRO/1000-style devices
    ({!Newt_nic.Mq_e1000}) and gigabit links,
    an ideal remote host on the far side of every link, the storage
    server, and the reincarnation server supervising every stack
    component with the right neighbour-notification hooks.

    Fault injection enters through {!inject} (or the lower-level
    {!kill_component}); recovery then unfolds through the reincarnation
    machinery exactly as Section V-D describes, and its consequences are
    observable through the application layer ({!app}, {!sc}) and the
    remote peers ({!sink}). *)

type component = C_tcp | C_udp | C_ip | C_pf | C_drv of int

val component_name : component -> string

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;  (** The machine's cycle-cost model. *)
  nics : int;  (** Gigabit ports, each with its own driver and peer. *)
  pf_rules : Newt_pf.Rule.t list;
  pf_shards : int;
      (** Packet-filter instances (>= 1, default 1): they share the one
          ruleset and partition the conntrack table by a symmetric flow
          hash (each with an LRU cap of [65536/pf_shards] and its own
          TTL sweep); the IP server steers each packet — both
          directions — to the owning shard from its IP header. 1
          reproduces the singleton filter exactly (name ["pf"], keys
          ["ip.to_pf"]/["pf.to_ip"]). *)
  tcp_config : Newt_net.Tcp.config option;
  nic_reset_time : Newt_sim.Time.cycles;
      (** Link retraining time after a device reset (the Figure 4
          gap). *)
  app_cores : int;
  coalesce_drivers : bool;
      (** Run all drivers on one dedicated core (Section VI-A: "to
          evaluate scalability ... we also used one driver for all
          interfaces"); each NIC keeps its own driver server, but they
          share the core "as the containers in which the drivers can
          block". *)
}

val default_config : config
(** Seed 42, 1 NIC, pass-all filter, 1.2 s NIC reset, 2 app cores.
    The reincarnation server keeps its defaults (100 ms heartbeats,
    120 ms restarts). *)

type t

val create : ?config:config -> unit -> t

(** {1 Access} *)

val topology : t -> Newt_scale.Topology.t
(** The stack's declared graph: ["tcp"], ["udp"], ["ip"], the PF
    shards (["pf"] alone, or [pf0..]) and one driver per NIC
    ([drv0..]). *)

val engine : t -> Newt_sim.Engine.t
val machine : t -> Newt_hw.Machine.t
val sc : t -> Newt_stack.Syscall_srv.t
val tcp_srv : t -> Newt_stack.Tcp_srv.t
val ip_srv : t -> Newt_stack.Ip_srv.t
val pf_srv : t -> Newt_stack.Pf_srv.t
(** PF shard 0 (the only one by default). *)

val pf_shard_srv : t -> int -> Newt_stack.Pf_srv.t
val pf_shard_count : t -> int

val rs : t -> Newt_reliability.Reincarnation.t
val storage : t -> Newt_reliability.Storage.t
val nic : t -> int -> Newt_nic.Mq_e1000.t
val link : t -> int -> Newt_nic.Link.t
val sink : t -> int -> Newt_stack.Sink.t

val proc_of : t -> component -> Newt_stack.Proc.t

val components : t -> Newt_stack.Component.t list
(** Every component server of the host, for the stack verifier. *)

val directory : t -> Newt_channels.Pubsub.t
(** The publish/subscribe channel directory (Section IV-C): every
    fast-path channel is published under a meaningful key
    (["tcp.to_ip"], ["drv0.to_ip"], ...) at boot, and re-published by
    the reincarnation machinery when its consumer restarts — late
    subscribers see current publications. *)

val local_addr : t -> int -> Newt_net.Addr.Ipv4.t
(** The host's address on interface [i] (10.0.[i].1). *)

val sink_addr : t -> int -> Newt_net.Addr.Ipv4.t
(** The peer's address on link [i] (10.0.[i].2). *)

val app : t -> Newt_stack.Syscall_srv.app
(** An application context on a timeshared core (round-robins over the
    configured app cores). *)

val run : t -> until:Newt_sim.Time.cycles -> unit
(** Advance the world. *)

val at : t -> Newt_sim.Time.cycles -> (unit -> unit) -> unit
(** Schedule an action at an absolute simulated time. *)

(** {1 Continuous verification} *)

val on_reincarnated : t -> (Newt_stack.Component.t -> unit) -> unit
(** Install the post-recovery callback on the host's reincarnation
    server ({!Newt_reliability.Reincarnation.set_on_reincarnated}):
    fires after every supervised component finishes a full recovery,
    with exports republished and neighbours notified — the point where
    the continuous verifier re-checks the live topology. *)

(** {1 Faults} *)

val kill_component : t -> component -> unit
(** Crash it; the reincarnation server recovers it. *)

val component_of_injection : Newt_reliability.Fault_inject.injection -> component
(** Which component a drawn fault lands in. *)

val inject : t -> Newt_reliability.Fault_inject.injection -> unit
(** Apply a drawn fault, including the degraded classes:
    device misconfiguration, broken recovery, and the synchronous-path
    hang that freezes the system (reboot necessary). *)

val live_update : t -> component -> unit
(** Pause the component's message service for 50 ms, then bump its
    {!Newt_stack.Proc.version}. No code is swapped and no state moves:
    channels stay established and messages queue through the pause,
    so other traffic is unaffected (the traffic side of Section V's
    UDP-update-under-TCP scenario). *)

val crash_storage : t -> unit
(** Crash the storage server: its contents vanish and "every other
    server has to store its state again" (Section V-D) — which they do,
    immediately, so later component crashes still recover. *)

val manual_restart : t -> component -> unit
(** The administrator's intervention for the broken-recovery and
    misconfigured-device cases (Section VI-B). *)

val frozen : t -> bool
(** The synchronous select path hung: only a reboot helps. *)

val restarts_of : t -> component -> int

(** {1 Probes} *)

val probe_reachable :
  t -> port:int -> timeout:Newt_sim.Time.cycles -> (bool -> unit) -> unit
(** From the peer on link 0, try to open a TCP
    connection to the host — the paper's "reachable from outside"
    criterion. The callback fires with the outcome after at most
    [timeout]. *)
