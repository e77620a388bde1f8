(** A growable FIFO ring of flat slots.

    Values wait in a power-of-two array that only a full ring grows
    (unrolled from its oldest value into twice the room, at least 16
    slots), so a queued value holds no cell of its own. Every slot that
    {!pop} or {!clear} frees is overwritten with a filler, so a value
    that left the ring is not kept reachable by it. The filler is the
    first value ever pushed: that one value stays reachable for the
    ring's lifetime. *)

type 'a t

val create : unit -> 'a t
(** An empty ring. It allocates no slots until the first {!push}. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append a value at the tail, growing a full ring first. *)

val peek : 'a t -> 'a
(** The oldest value, left in place.
    @raise Invalid_argument if the ring is empty. *)

val pop : 'a t -> 'a
(** Remove and return the oldest value; its slot gets the filler.
    @raise Invalid_argument if the ring is empty. *)

val clear : 'a t -> unit
(** Drop every value; every slot gets the filler. The ring keeps its
    size. *)
