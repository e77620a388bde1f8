(** Machine-wide pool directory.

    "Any server that knows the pool described in the pointer can
    translate the rich pointer into a local one to access the data"
    (Section V-C). The registry maps pool identifiers to pools so that
    consumers — and the DMA engines of simulated devices — can resolve
    rich-pointer chains. Reads enforce the pools' read-only export. *)

type t

exception Unknown_pool of int

val create : unit -> t

val register : t -> Pool.t -> unit
(** Make a pool resolvable. Re-registering an id replaces the pool (a
    restarted owner re-creates and re-exports it). *)

val unregister : t -> id:int -> unit
(** Withdraw a pool from the directory. Unregistering an id that is not
    (or no longer) registered is a no-op: crash teardown and restart
    paths may race to withdraw the same pool, and the second withdrawal
    must be harmless. *)

val find : t -> int -> Pool.t
(** Raises {!Unknown_pool}. *)

val read : t -> Rich_ptr.t -> Bytes.t
(** Resolve and copy one chunk. Raises {!Unknown_pool} or
    {!Pool.Stale_pointer}. *)

val gather : t -> Rich_ptr.chain -> Bytes.t
(** Materialize a chunk chain into fresh contiguous bytes — what a
    scatter-gather DMA engine does when serializing a frame. *)

val gather_into : t -> Rich_ptr.chain -> Bytes.t -> unit
(** [gather_into t chain dst] writes the chain's bytes at the start of
    [dst], which must hold {!Rich_ptr.chain_len} bytes: the same bytes
    {!gather} returns, into a buffer the caller lends (a link's ring
    slot). Raises as {!read} does, after writing the chunks before the
    failing one. *)

val chain_live : t -> Rich_ptr.chain -> bool
(** All chunks of the chain resolve to live slots. *)
