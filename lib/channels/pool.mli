(** Shared memory pools.

    Pools carry the bulk data that is too large for queue slots
    (Section IV): the owner allocates slots, fills them once, and passes
    rich pointers down the stack. Pools are exported read-only — the
    consumers cannot mutate the original data (immutability as in FBufs,
    Section V-C), which the API enforces by only offering [read]/[blit]
    to non-owners.

    Frees are generation-counted: freeing a slot bumps its generation,
    so reads through a stale {!Rich_ptr.t} raise {!Stale_pointer}
    instead of returning reused bytes. This is what makes the zero-copy
    crash-recovery protocol of Section V-D testable: after a component
    restart, the surviving components' re-issued requests either refer
    to still-live data or fail loudly.

    The slot count is the contract: {!alloc} fails with
    {!Pool_exhausted} exactly when all [slots] slots are in use.
    Memory follows use, not capacity. {!create} allocates a few words
    whatever the slot count. Per-slot metadata (generation, state, free
    stack entry) grows by doubling as slots are first handed out; the
    free list is LIFO with slot 0 on top, so only as many slots as were
    ever in use at once ({!resident_slots}) carry it. A slot's storage
    is created by the owner's first {!write} and is as long as the
    furthest byte written, never longer than the slot size
    ({!resident_bytes}); bytes never written read as zeros. {!free_all}
    keeps the metadata and storage that exist. *)

type t

exception Stale_pointer of Rich_ptr.t
(** Raised when dereferencing a pointer whose slot has been freed or
    reused since the pointer was made. *)

exception Double_free of Rich_ptr.t
(** Raised by {!free} when the slot behind the pointer was already
    released by a previous {!free} and has not been reallocated since:
    an unmistakable owner bug, distinguished from the merely-stale case
    (slot reclaimed wholesale by {!free_all} or since handed to a new
    allocation) so it cannot hide behind the crash-recovery paths that
    tolerate {!Stale_pointer}. *)

exception Pool_exhausted
(** Raised by {!alloc} when no free slot is available. *)

val set_default_threadsafe : bool -> unit
(** When [true], pools created afterwards guard their free-list with a
    mutex so allocation and free may come from different domains (the
    native runtime's driver fills a pool the IP server frees). Slot
    payloads stay lock-free: slots are owner-disjoint and hand-off is
    ordered by the SPSC ring publication. Growing the metadata (in
    {!alloc}) and creating or growing a slot's storage (in the owner's
    {!write}) both take the mutex, so neither loses the other's update;
    both happen before the pointer is published, so a reader on
    another domain always sees them. Default [false] — simulated runs
    are single-threaded. *)

val create : id:int -> slots:int -> slot_size:int -> t
(** [create ~id ~slots ~slot_size] makes a pool of [slots] buffers of
    [slot_size] bytes each. Nothing per slot is allocated yet. Ids must be
    unique per pool universe (machine); use {!fresh_id} unless
    reproducing a specific id. *)

val fresh_id : unit -> int
(** A process-wide unique pool identifier. *)

val id : t -> int
val slot_size : t -> int
val free_slots : t -> int
val in_use : t -> int

val resident_slots : t -> int
(** Slots that carry metadata because they were handed out at least
    once: the high-water mark of {!in_use} over the pool's lifetime.
    Their storage is counted by {!resident_bytes}. *)

val resident_bytes : t -> int
(** Bytes of slot storage created so far: for each slot, the furthest
    byte any {!write} reached. Reads never add to it. Linear in
    {!resident_slots}. *)

val alloc : t -> len:int -> Rich_ptr.t
(** Owner side: allocate a slot and return a pointer covering its first
    [len] bytes. Raises {!Pool_exhausted} when full and [Invalid_argument]
    when [len] exceeds the slot size. *)

val write : t -> Rich_ptr.t -> src:Bytes.t -> src_off:int -> unit
(** Owner side: fill the chunk behind a live pointer from [src],
    creating or growing the slot's storage to reach the chunk's end.
    Raises {!Stale_pointer} on a dead pointer and [Invalid_argument]
    when the chunk ends past the slot size. Writing is an owner privilege:
    this function is deliberately not part of what a consumer gets. *)

val sub_ptr : Rich_ptr.t -> off:int -> len:int -> Rich_ptr.t
(** A narrower view into the same chunk ([off] relative to the chunk).
    The result shares the generation, so it dies with the slot. *)

val read : t -> Rich_ptr.t -> Bytes.t
(** Consumer side: copy the chunk out; bytes no {!write} reached read
    as zeros. Raises {!Stale_pointer}. *)

val blit : t -> Rich_ptr.t -> dst:Bytes.t -> dst_off:int -> unit
(** Consumer side: copy the chunk into [dst] at [dst_off]. *)

val live : t -> Rich_ptr.t -> bool
(** Whether a pointer is still valid (right pool, live generation). *)

val free : t -> Rich_ptr.t -> unit
(** Owner side: release the slot behind the pointer. Freeing the same
    allocation twice raises {!Double_free}; freeing through an
    otherwise stale pointer (reallocated slot, wholesale reclaim)
    raises {!Stale_pointer}. *)

val free_all : t -> unit
(** Owner side: release every slot (used when the owner restarts and
    reinitializes its pool, Section V-D). Generations advance for the
    slots that were live; metadata and storage are kept for reuse, and
    allocation starts again from slot 0. The cost is linear in
    {!resident_slots}, not in the slot count. *)

val metered : (unit -> 'a) -> int * 'a
(** [metered f] runs [f] and returns how many pool operations it
    performed on the calling domain, with [f]'s result. An operation is
    a successful {!alloc} or a single {!free}, in any pool; {!free_all}
    is not one. Operations inside a nested [metered] call count only
    for that call. The server runtime prices its work with it. *)
