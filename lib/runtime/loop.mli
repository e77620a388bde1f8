(** Per-domain event loop of the native runtime.

    Each OCaml domain runs one loop serving the model cores pinned to
    it: a domain-local run queue (self-posts, no synchronization), a
    mutex-protected inbox for cross-domain posts with a
    spin-then-park doorbell (the futex-style stand-in for the paper's
    MONITOR/MWAIT), and a domain-local timer heap. *)

type t

type stats = {
  index : int;
  pinned : string list;  (** Component names pinned to this domain. *)
  parks : int;  (** Times the loop gave up polling and parked/slept. *)
  wakes : int;  (** Condition-variable signals sent by producers. *)
  posts_remote : int;  (** Cross-domain posts received. *)
  posts_self : int;  (** Same-domain posts (run-queue fast path). *)
  timer_fires : int;
  executed : int;  (** Closures run. *)
}

val create :
  index:int ->
  now:(unit -> Newt_sim.Time.cycles) ->
  ?spin_budget:int ->
  ?never_park:bool ->
  unit ->
  t
(** [spin_budget] is how many poll iterations an idle loop spends
    watching its inbox before parking (default 2000 ≈ a few µs);
    [never_park] polls forever — the other end of the Section IV-B
    latency/energy trade-off. *)

val index : t -> int

val add_name : t -> string -> unit
(** Record a component pinned to this loop (reporting only). *)

val post : t -> (unit -> unit) -> unit
(** Enqueue work; callable from any domain (and before {!run} starts —
    such posts become the loop's first work). Same-domain posts take
    the unsynchronized run-queue fast path. *)

val schedule : t -> Newt_sim.Time.cycles -> (unit -> unit) -> unit -> unit
(** [schedule t delay k] arms a timer; returns a cancel thunk. Arm and
    cancel only from the owning domain (or before the loop starts).
    Timers due at the same time fire in arming order. *)

val run : t -> unit
(** The loop body — call from the domain that owns the loop. Returns
    after {!request_stop}. An exception from a closure stops the loop
    and is reported by {!failure}. *)

val request_stop : t -> unit
val failure : t -> exn option
val stats : t -> stats
