(** Priority queue of timed events.

    An indexed binary min-heap keyed by (time, sequence number). The
    sequence number is assigned at {!push} (or reserved earlier with
    {!ticket}) and makes the order of simultaneous events
    deterministic: events pushed first pop first. Each queued entry's
    heap slot is tracked, so {!remove} takes it out in O(log n) and the
    heap holds only entries that are still due: a removed or popped
    entry leaves no slot behind, and the queue keeps no reference to
    its value. Sifts move flat ints only; an entry's value is written
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
(** [ticket q] reserves the next sequence number, exactly the one a
    {!push} made now would get. A value queued later under it with
    {!push_ticket} pops as if it had been pushed at the time of the
    ticket. *)

val push_ticket : 'a t -> Time.cycles -> int -> 'a -> 'a entry
(** [push_ticket q at seq v] queues [v] at absolute time [at] under
    the reserved sequence number [seq]. Raises [Invalid_argument] if
    [seq] has not been issued yet. Each ticket is meant to be used at
    most once. *)

val detached : 'a t -> 'a entry
(** An entry of the queue that is never queued, so {!remove} ignores
    it: the initial value of a field that will hold an entry. *)

val remove : 'a entry -> unit
(** Take the entry out of its queue. A no-op if it was already popped
    or removed. *)

val min_time : 'a t -> Time.cycles
(** Time of the earliest entry. Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove the earliest entry and return its value. Raises
    [Invalid_argument] when empty. *)
