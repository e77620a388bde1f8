(** The flow→shard steering function, shared by every layer.

    The scaling design of the paper's discussion — several TCP instances
    fed by a multi-queue NIC — only works if {e all} layers agree where
    a flow lives: the NIC's RSS engine (upward, per frame), the IP
    server's fan-out (upward, per segment), and the SYSCALL server's
    routing (downward, per call). This module is that single source of
    truth: a thin wrapper over the device's own {!Newt_nic.Rss} engine,
    so software steering and hardware steering cannot disagree.

    For {e outbound} connections the causality is reversed:
    {!port_for_shard} searches the ephemeral range for a source port
    whose hash maps back to the requesting shard, so the flow's ACKs
    arrive on that shard's RX queue. *)

type t

val create : ?seed:int -> shards:int -> unit -> t
(** [shards] steering targets behind a 128-entry indirection table. *)

val rss : t -> Newt_nic.Rss.t
(** The underlying RSS engine — hand this same value to the NIC so the
    two steer identically. *)

val shard_of :
  t ->
  src:Newt_net.Addr.Ipv4.t ->
  sport:int ->
  dst:Newt_net.Addr.Ipv4.t ->
  dport:int ->
  int
(** Where a flow lives. Symmetric in the two endpoints. *)

val port_for_shard :
  t ->
  ?in_use:(int -> bool) ->
  shard:int ->
  src:Newt_net.Addr.Ipv4.t ->
  dst:Newt_net.Addr.Ipv4.t ->
  dst_port:int ->
  unit ->
  (int, [ `Exhausted ]) result
(** An ephemeral source port (49152–65535) that {!shard_of} maps to
    [shard] for this destination and that [in_use] (default: nothing
    is) does not reject — the caller passes its connection table so a
    picked port is never silently reused. Scans the whole ephemeral
    range from a rotating cursor, so concurrent connections get
    distinct ports; [Error `Exhausted] means every candidate port
    hashing to [shard] for this destination is in use — a genuine
    resource limit the caller must surface, not retry. *)

val rebalance : t -> loads:float array -> int
(** Reprogram the indirection table so expected load (bucket count
    weighted by the observed per-shard [loads]) evens out: buckets move
    from overloaded to underloaded shards, greedily, until no move
    helps. Returns the number of buckets reassigned. Only {e new} flows
    follow the new table — exactly like reprogramming a real NIC. *)

val imbalance : loads:float array -> float
(** [max load / mean load]; 1.0 is perfect balance, and the guard
    against division by zero is [0/0 = 1]. *)
