(** A NewtOS host whose every layer can be replicated.

    The single-instance {!Newt_core.Host} tops out at one TCP server's
    worth of cycles per segment (Table II). This composition implements
    the scaling design the paper's discussion points at: a multi-queue
    NIC ({!Newt_nic.Mq_e1000}) steers each flow's frames onto one of N
    RX queues; the IP server fans segments up to N [tcp_srv] replicas on
    dedicated cores (each with its own channels, pools and request
    database); the SYSCALL server routes each socket's calls down to its
    shard. One {!Shard_map} drives all layers, so {e every segment of a
    flow traverses exactly one shard} — the affinity invariant
    {!steering_violations} counts violations of.

    The stack is a lowering of {!Topology}: transport shards, IP
    replicas and PF shards are member counts of one declared graph,
    built and supervised by one builder, and each replicated plane is
    wrapped in a {!Replica_set} for fault injection and load
    accounting. Each member is supervised by the reincarnation server
    independently: killing one TCP shard ({!kill_shard}) loses only that
    shard's connections; the other shards' flows keep running without
    losing a segment.

    The IP server can be replicated ([ip_replicas]): each of the [r]
    instances owns the NIC queues [q] with [q mod r = k] and serves the
    transport shards [i] with [i mod r = k]. ARP bindings learned from
    the wire are broadcast through the channel directory so all caches
    converge; killing one replica ({!kill_ip_replica}) fences off only
    its own queues.

    The packet filter can be sharded too ([pf_shards]): [np] PF
    instances partition the conntrack table by the same flow hash
    (shard [j] owns the flows with [shard_of mod np = j], with an LRU
    cap of [total/np] each and its own TTL sweep). Every IP replica
    holds a channel pair to every PF shard and steers each packet —
    both directions — from its IP header, so a flow's packets always
    meet the same conntrack partition. Every shard holds the one
    ruleset in its own storage namespace and reloads it on restart,
    as the unsharded filter does. Killing one shard
    ({!kill_pf_shard}) holds only its own flows' packets while the
    reincarnation server brings it back; recovery re-tracks {e only}
    that shard's slice of the transports' connection tables — the
    sibling shards lose zero entries. *)

type config = {
  seed : int;
  shards : int;  (** TCP server replicas. *)
  ip_replicas : int;
      (** IP server instances; must satisfy
          [1 <= ip_replicas <= shards]. 1 reproduces the single-IP
          stack exactly (whole-device reset on crash). *)
  pf_shards : int;
      (** Packet-filter instances; must satisfy
          [1 <= pf_shards <= shards]. 1 reproduces the single-PF stack
          exactly (same channel keys, same storage namespace). Ignored
          when [pf_rules = None]. *)
  link_gbps : float;
      (** The wire must outrun N shards — default 40 (a 40GbE port). *)
  pf_rules : Newt_pf.Rule.t list option;
      (** [None] removes the filter from the path (the paper's
          no-PF column); [Some rules] wires [pf_shards] PF servers
          sharing this one ruleset. *)
  tcp_config : Newt_net.Tcp.config option;
  conntrack_total : int;
      (** Whole-stack conntrack budget (default 65536): each of the
          [pf_shards] filter instances caps its partition at
          [conntrack_total / pf_shards], so N shards hold the same
          total state as one. The adversarial churn scenarios shrink
          it to force eviction within a short run. *)
}

val default_config : config
(** 4 TCP shards, 1 IP instance, 1 PF shard, 40 Gbps, no filter,
    seed 42. *)

type t

val create : ?config:config -> unit -> t

val engine : t -> Newt_sim.Engine.t
val machine : t -> Newt_hw.Machine.t
val sc : t -> Newt_stack.Syscall_srv.t
val tcp_shard : t -> int -> Newt_stack.Tcp_srv.t

val ip_replica : t -> int -> Newt_stack.Ip_srv.t

val pf_shard : t -> int -> Newt_stack.Pf_srv.t
(** PF shard [j]. Raises when the stack runs without a filter. *)

val pf_shard_count : t -> int
(** 0 when the stack runs without a filter. *)

val directory : t -> Newt_channels.Pubsub.t
(** The channel directory, which also carries the ARP learn-broadcast
    publications (keys under ["arp."]). *)

val nic : t -> Newt_nic.Mq_e1000.t
val sink : t -> Newt_stack.Sink.t
val shard_map : t -> Shard_map.t

(** {1 Topology introspection (for the stack verifier)} *)

val components : t -> Newt_stack.Component.t list
(** Every component server of the host: SYSCALL, filter shards (if
    any), driver, transport shards, IP replicas. *)

val topology : t -> Topology.t
(** The stack's declared graph: [tcp0..], [udp0], the IP replicas
    (["ip"] alone when unreplicated), the PF shards (none without a
    filter) and the one ["mqdrv"] driver. *)

val channel : t -> string -> Newt_stack.Msg.t Newt_channels.Sim_chan.t
(** The channel made for a {!Topology.channels} key. *)

val local_addr : t -> Newt_net.Addr.Ipv4.t
val sink_addr : t -> Newt_net.Addr.Ipv4.t

val app : t -> Newt_stack.Syscall_srv.app
(** A fresh application on its {e own} timeshared core: saturating
    senders must not pay context switches to each other. *)

val run : t -> until:Newt_sim.Time.cycles -> unit
val at : t -> Newt_sim.Time.cycles -> (unit -> unit) -> unit

(** {1 Faults} *)

val rs : t -> Newt_reliability.Reincarnation.t
(** The reincarnation server supervising every member; its
    post-recovery callback is where the continuous verifier re-checks
    the live sharded topology. *)

val kill_shard : t -> int -> unit
(** Crash TCP shard [i]; the reincarnation server recovers it. *)

val shard_restarts : t -> int -> int

val kill_ip_replica : t -> int -> unit
(** Crash IP replica [k]. Its queues are fenced off (their in-flight
    datagrams are the only losses), its shards' requests abort, and the
    reincarnation server brings it back — reprogramming only its own
    queues, without a link bounce. *)

val ip_replica_restarts : t -> int -> int

val kill_pf_shard : t -> int -> unit
(** Crash PF shard [j]. Only its own flows' packets are held (and
    resubmitted when it returns — no loss); its recovery re-tracks only
    the conntrack slice it owns. *)

val pf_shard_restarts : t -> int -> int

(** {1 Instrumentation} *)

type shard_stats = {
  shard : int;
  flows : int;  (** Live TCP connections on this shard. *)
  segs_out : int;
  bytes_out : int;
  queue_depth : int;  (** IP→shard channel backlog, in messages. *)
  core_util : float;  (** Busy fraction of the shard's dedicated core. *)
  restarts : int;
}

val shard_stats : t -> shard_stats array

type pf_shard_stats = {
  pf_shard : int;
  verdicts : int;
  pf_blocked : int;
  expired : int;  (** Conntrack entries swept by this shard's TTL sweep. *)
  entries : int;  (** Live conntrack entries in this shard's partition. *)
  half_open : int;  (** Of [entries], how many are still unconfirmed. *)
  evicted_half_open : int;
      (** Capacity evictions that took a half-open entry. *)
  evicted_established : int;
      (** Capacity evictions forced onto an established entry. *)
  pf_restarts : int;
}

val pf_shard_stats : t -> pf_shard_stats array
(** Empty when the stack runs without a filter. *)

val planes : t -> Replica_set.plane list
(** Every replication plane (TCP, UDP, IP, PF when present) with its
    load metric. *)

val imbalance_ratio : t -> float
(** The worst imbalance anywhere in the stack: max over the NIC's
    per-queue received frames and every replication plane's member
    loads (1.0 = perfectly even). *)

val steering_violations : t -> int
(** Flows observed on two different shards, summed over the NIC's
    journal and the IP fan-out's journal. 0 = the affinity invariant
    held. *)

val rebalance : t -> int
(** Reprogram the indirection table from {e every} plane's observed
    load (projected onto the RSS buckets), not just the TCP shards';
    returns the number of buckets moved. *)
