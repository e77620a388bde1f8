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
(** Number of scheduled (uncancelled) events, lane events included. *)

(** {1 Lanes}

    A lane carries events whose times never decrease, such as the
    frames one direction of a link delivers in FIFO order. Lane events
    wait in a ring per lane and never enter the queue of {!schedule}'s
    events: the engine keeps its non-empty lanes in a heap of their
    own, keyed by each lane's earliest event, and a lane event
    allocates nothing. Each event takes its sequence number from the
    same counter as {!schedule_at} when it is scheduled, so it fires at
    exactly the point in the (time, scheduling order) sequence that
    {!schedule_at} would have given it, and each is still one
    {!step}. *)

type lane

val lane : t -> lane
(** A new, empty lane on the engine. *)

val schedule_lane : lane -> Time.cycles -> (unit -> unit) -> unit
(** [schedule_lane l at f] runs [f] at absolute time [at >= now t].
    Raises [Invalid_argument] if [at] is earlier than the time of the
    lane's previous event since it was created or last cleared. Lane
    events cannot be cancelled one by one. *)

val lane_length : lane -> int
(** Number of events still queued on the lane. An event leaves it just
    before its thunk runs. *)

val clear_lane : lane -> int
(** Drop every event still queued on the lane and return how many
    there were. Their thunks are released, and the next event may be
    at any time [>= now t]. *)

val run : ?until:Time.cycles -> t -> unit
(** [run t] executes events in (time, scheduling order) until the queue
    is empty or the next event lies past [until]. Events later than
    [until] remain queued. A run with [until] leaves the clock at
    [max (now t) until]. *)

val step : t -> bool
(** Execute the single earliest event. Returns [false] when the queue was
    empty. *)
