(** The packet-filter server.

    Sits on the T junction of Figure 3: the IP server submits every
    packet (both directions) and must receive a verdict before passing
    it on — which is exactly why a PF crash loses no packets: IP knows
    which requests went unanswered and resubmits them (Section V-D,
    Figure 5).

    State and recovery (Table I): the ruleset is static configuration,
    saved to the storage server whenever set; the connection-tracking
    table is dynamic but recoverable — from the periodic snapshot
    (which preserves each entry's last-seen time, so a restart does
    not resurrect idle entries as freshly-seen) plus a query of the
    TCP and UDP servers for flows the snapshot missed. Both recoveries
    are installed as {!Component} lifecycle hooks at [create], which
    also arms the periodic conntrack idle-timeout sweep (re-armed
    after every restart; the sweep chain dies with a crash).

    Verdicts are sent back on the channel paired with the request's
    arrival channel, so replicated IP servers can share one filter —
    call {!connect_ip} once per replica. *)

type t

val create :
  Component.t ->
  save:(string -> string -> unit) ->
  load:(string -> string option) ->
  ?max_entries:int ->
  ?owns:(Newt_pf.Conntrack.flow -> bool) ->
  unit ->
  t
(** [max_entries] caps this instance's conntrack table (a sharded
    deployment gives each of N shards [total/N]). [owns] (default:
    everything) is the shard's partition predicate: recovery restores
    only owned flows — from the snapshot and from the transport
    servers alike — so a PF-shard crash re-tracks exactly its own
    slice and never resurrects a sibling's entries. *)

val comp : t -> Component.t
val engine_of : t -> Newt_pf.Pf_engine.t

val connect_ip :
  t ->
  from_ip:Msg.t Newt_channels.Sim_chan.t ->
  to_ip:Msg.t Newt_channels.Sim_chan.t ->
  unit

val set_rules : t -> Newt_pf.Rule.t list -> unit
(** Install (and persist) a configuration. *)

val rule_count : t -> int

val set_conntrack_sources :
  t ->
  tcp:(unit -> Newt_pf.Conntrack.flow list) ->
  udp:(unit -> Newt_pf.Conntrack.flow list) ->
  unit
(** Where a restarted filter recovers flows its snapshot missed. *)

val repersist : t -> unit
(** Save the ruleset and the conntrack snapshot again (after a
    storage-server crash). *)

val verdicts_issued : t -> int
val blocked : t -> int

val conntrack_expired : t -> int
(** Conntrack entries dropped by the idle-timeout sweep so far (this
    incarnation). *)

val evicted_half_open : t -> int
(** Capacity evictions that took an unconfirmed (half-open) entry. *)

val evicted_established : t -> int
(** Capacity evictions forced onto an established entry — nonzero only
    when the table filled with confirmed flows. *)
