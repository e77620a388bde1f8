(** Core execution model.

    A [t] serializes the work of the simulated processes assigned to it.
    Components do not run OCaml code "on" a core; instead they charge
    cycle costs: [exec core ~proc ~cost k] runs continuation [k] once the
    core has spent [cost] cycles on behalf of process [proc], after all
    previously queued work, and [charge] spends cycles with nothing to
    run after them. The model captures what the paper cares about:

    - a {b dedicated} core runs a single process: no context switches, no
      cache refills, interrupts handled locally;
    - a {b timeshared} core charges a context switch plus a cache refill
      whenever the process being served changes;
    - an idle core halts (MONITOR/MWAIT) once it has polled for longer
      than the model's poll window; work arriving at a halted core pays
      the MWAIT wake-up latency.

    The core is a FIFO server in virtual time: the start, switch cost
    and wake-up of a piece of work are fixed when it is queued, so
    queued work costs no event of its own. Each [exec] is one engine
    event, at its completion; a [charge] is none. *)

type t

type kind =
  | Dedicated  (** Runs one OS component, caches stay warm. *)
  | Timeshared  (** Shared by applications and (in Minix mode) servers. *)

val create :
  Newt_sim.Engine.t ->
  exec:Newt_sim.Exec.t ->
  costs:Costs.t ->
  id:int ->
  kind:kind ->
  t

val id : t -> int
val kind : t -> kind

val exec : t -> proc:int -> cost:Time.cycles -> (unit -> unit) -> unit
(** [exec core ~proc ~cost k] queues [cost] cycles of work for process
    [proc] and calls [k] when it completes. Work is served FIFO. On a
    timeshared core, a switch to a different [proc] than the previously
    served one first charges [context_switch + cache_refill]. On any
    core, if the core was halted, the first queued work additionally
    waits for the MWAIT wake-up latency. *)

val charge : t -> proc:int -> cost:Time.cycles -> unit
(** [charge core ~proc ~cost] is [exec core ~proc ~cost ignore] without
    the event: the cycles take their FIFO place, with the same switch
    cost and wake-up, and delay all later work. A no-op under native
    execution. *)

val busy : t -> bool
(** The core currently has queued or running work. *)

val busy_cycles : t -> Time.cycles
(** Total cycles of the work queued so far (excluding halts): work
    counts from when it is queued, so this includes what is still
    ahead while the core is {!busy}. *)

val polling_cycles : t -> Time.cycles
(** Cycles spent awake but idle, polling the queues before halting —
    the energy cost of low wake-up latency (Section IV-B: "constant
    checking keeps consuming energy"). Each idle gap contributes up to
    the model's poll window. *)

val utilization : t -> now:Time.cycles -> float
(** Fraction of time busy since creation. *)

val last_proc : t -> int option
(** The process whose work was queued most recently: once the core is
    idle, the one it served last. *)
