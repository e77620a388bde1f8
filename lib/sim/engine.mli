(** The discrete-event simulation engine.

    An engine owns the simulated clock and an event queue of thunks. All
    components of the simulated machine schedule work on a shared engine;
    running the engine advances time to each event in order and executes
    it. Cancellation is supported through handles because timers (e.g. TCP
    retransmission, heartbeats) are frequently re-armed: a cancelled
    event leaves the queue at once, so the queue only ever holds events
    that will fire. *)

type t
(** An engine instance. *)

type handle
(** A scheduled event that can be cancelled. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] makes an engine with its clock at cycle 0 and a
    deterministic root {!Rng.t} (default seed 42). *)

val now : t -> Time.cycles
(** Current simulated time. *)

val rng : t -> Rng.t
(** The engine's root random stream; [Rng.split] it per subsystem. *)

val schedule : t -> Time.cycles -> (unit -> unit) -> handle
(** [schedule t delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative. *)

val schedule_at : t -> Time.cycles -> (unit -> unit) -> handle
(** [schedule_at t at f] runs [f] at absolute time [at >= now t]. *)

val cancel : handle -> unit
(** Cancel a scheduled event, removing it from the queue in
    O(log [pending]). Cancelling a fired or already-cancelled event is a
    no-op. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val run : ?until:Time.cycles -> ?max_events:int -> t -> unit
(** [run t] executes events in (time, scheduling order) until the queue
    is empty, the next event lies past [until], or [max_events] events
    have fired. Events later than [until] remain queued. Unless
    [max_events] left an event at or before [until] unfired, a run with
    [until] leaves the clock at [max (now t) until]. *)

val step : t -> bool
(** Execute the single earliest event. Returns [false] when the queue was
    empty. *)
