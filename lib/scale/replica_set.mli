(** The uniform replication plane.

    Every replicated layer of the sharded stack — transport shards, IP
    replicas, PF shards — is the same mechanism wearing different
    partition functions: N instances of one {!Newt_stack.Component}
    server, each on a dedicated core with its own storage namespace,
    supervised independently by the reincarnation server, and reporting
    a per-member load so imbalance is observable (and rebalanceable)
    for {e every} plane, not just the transport one.

    The members are built and supervised by {!Topology}; a
    [Replica_set] wraps one plane's servers for fault injection and
    load accounting. The partition convention: member [m] of an
    [M]-member set serves the transport shards [i] with [i mod M = m],
    or — for the PF plane — the flows [f] with [shard_of f mod M = m]. *)

type 'srv t

val of_servers :
  name:string -> comp:('srv -> Newt_stack.Component.t) -> 'srv array -> 'srv t
(** The set of already built servers, one per member; [comp] gives
    each server's component. Member names are the components'
    names. *)

val size : 'srv t -> int
val comp : 'srv t -> int -> Newt_stack.Component.t
val srv : 'srv t -> int -> 'srv
val comps : 'srv t -> Newt_stack.Component.t array
val servers : 'srv t -> 'srv array

(** {1 Supervision} *)

val attach : 'srv t -> Newt_reliability.Reincarnation.t -> unit
(** The reincarnation server that supervises the members (see
    {!Topology.supervise}); {!kill} and {!restarts} go through it. *)

val kill : 'srv t -> int -> unit
(** Crash member [i] (fault injection); the reincarnation server
    recovers it. Raises if no reincarnation server was attached. *)

val restarts : 'srv t -> int -> int
(** Restarts of member [i] so far (0 when none is attached). *)

(** {1 Load, imbalance, rebalancing} *)

val set_load : 'srv t -> ('srv -> float) -> unit
(** How much work a member has done (bytes out, verdicts issued, ...)
    — the per-plane load metric. *)

type plane = {
  plane_name : string;
  members : int;
  member_loads : unit -> float array;
}
(** A type-erased view of a set, so heterogeneous sets can be listed
    together for whole-stack imbalance accounting. *)

val plane : 'srv t -> plane

val plane_imbalance : plane -> float
(** Max/mean of the plane's member loads (1.0 = balanced, also the
    no-load answer). *)

val projected_loads : shards:int -> plane list -> float array
(** Fold every plane's observed load onto the transport-shard buckets
    the RSS indirection table moves: member [m] of an [M]-member plane
    serves shards [i mod M = m], so its normalized load is spread
    evenly over those buckets. Planes with no load yet are skipped.
    The result feeds {!Shard_map.rebalance}, making a hot PF shard or
    IP replica — not just a hot TCP shard — visible to the
    rebalancer. *)
