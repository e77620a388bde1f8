(** Simulated fast-path channel.

    The in-simulator counterpart of {!Spsc_queue}: a unidirectional,
    bounded, non-blocking queue between exactly one producer server and
    one consumer server. The cycle costs of using it (enqueue, dequeue,
    marshalling, cross-core cache-line stalls) are charged by the server
    runtime, not here; this module only provides the queue semantics the
    paper requires — never block, notify an idle consumer, and count
    what happened for the evaluation.

    A channel can be {e torn down} when its creator crashes
    (Section IV-D): sends and receives then fail until the channel is
    re-exported, which resets the queue (in-flight messages are lost,
    exactly like remapping a fresh shared-memory region).

    A simulated channel keeps its queued messages in a
    {!Newt_sim.Fifo}, an array ring that doubles with the occupancy
    high-water mark, up to the capacity's power of two. The ring is made
    on the first send and a message is dropped from it when it is
    received or the channel is reset: only the first message ever sent
    stays reachable, as the filler of free slots. *)

type 'a t

val create : ?capacity:int -> id:int -> unit -> 'a t
(** Default capacity: 512 slots, a typical ring size. *)

val create_native : ?capacity:int -> id:int -> unit -> 'a t
(** A channel backed by a real {!Spsc_queue} between two OCaml domains
    (one producer, one consumer). Counters become atomics, capacity is
    rounded up to a power of two, and the notify hook fires on every
    successful send — cross-domain, the was-empty test is racy, so the
    consumer-side doorbell dedupes instead. *)

val id : 'a t -> int
val capacity : 'a t -> int

val send : 'a t -> 'a -> bool
(** Non-blocking send; [false] when the queue is full or the channel is
    torn down. The caller decides what to do — e.g. a network stack
    drops the packet (Section IV-A). *)

val recv : 'a t -> 'a option
(** Non-blocking receive; [None] when empty or torn down. *)

val peek : 'a t -> 'a option

val length : 'a t -> int
val is_empty : 'a t -> bool

val set_notify : 'a t -> (unit -> unit) -> unit
(** [set_notify c f] installs the consumer's wake-up hook: [f] fires
    whenever a message is enqueued while the queue was empty. This
    models the producer's write to the consumer's monitored cache line
    (MONITOR/MWAIT, Section IV-B). *)

val tear_down : 'a t -> unit
(** Invalidate the channel and drop queued messages. *)

val revive : 'a t -> unit
(** Re-export after a restart: the channel id is preserved, the queue
    restarts empty. *)

val is_down : 'a t -> bool

val sent_total : 'a t -> int
(** Messages successfully enqueued over the channel's lifetime. *)

val dropped_total : 'a t -> int
(** Sends refused because the queue was full or down. *)

val max_occupancy : 'a t -> int
(** High-water mark of queued messages — the per-ring occupancy figure
    reported by the native runtime's [--json] output. *)
