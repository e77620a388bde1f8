(** Priority queue of timed events.

    An indexed binary min-heap keyed by (time, sequence number). The
    sequence number is assigned at {!push} (or taken by {!ticket} for
    an event kept outside the queue) and makes the order of
    simultaneous events deterministic: events pushed first pop first.
    Each queued entry's heap slot is tracked, so {!remove} takes it out
    in O(log n) and the heap holds only entries that are still due: a
    removed or popped entry leaves no slot behind, and the queue keeps
    no reference to its value. Sifts move flat ints only; an entry's value is written
    once when pushed and once when it leaves. *)

type 'a t
(** Heap of events carrying values of type ['a]. *)

type 'a entry
(** One pushed event, queued until it is popped or removed. *)

val create : dummy:'a -> unit -> 'a t
(** An empty queue. [dummy] fills vacated slots, so that a popped or
    removed value is not kept reachable by the heap. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of queued entries. *)

val push : 'a t -> Time.cycles -> 'a -> 'a entry
(** [push q at v] queues [v] at absolute time [at]. *)

val ticket : 'a t -> int
(** [ticket q] takes the next sequence number, exactly the one a
    {!push} made now would get; the push after it gets the one after.
    An event kept outside the queue under this number (as
    {!Engine}'s lane events are) orders against the queue's entries
    as if it had been pushed now. *)

val remove : 'a entry -> unit
(** Take the entry out of its queue. A no-op if it was already popped
    or removed. *)

val min_time : 'a t -> Time.cycles
(** Time of the earliest entry. Raises [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** Sequence number of the earliest entry, which breaks a tie with an
    event kept outside the queue at {!min_time}. Raises
    [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove the earliest entry and return its value. Raises
    [Invalid_argument] when empty. *)
