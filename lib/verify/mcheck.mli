(** Exhaustive crash-point model checker for the recovery procedures.

    Table I's dependability argument assumes recovery works from {e
    any} crash point — including a crash in the middle of recovery
    itself. Every {!Newt_stack.Component} names its recovery steps
    ({!Newt_stack.Component.recovery_steps}); this module enumerates
    the full (component × labeled step) space and, for each crash
    point, asks a caller-supplied runner to arm the one-shot injector
    ({!Newt_stack.Component.arm_crash_after}), drive the workload,
    crash the component, let the reincarnation server recover it —
    dying again right after the armed step, forcing a second recovery
    — and judge convergence: the stack back to responsive, the
    continuous verifier and the {!Protocol} checker both clean.

    The search driver is deliberately generic (a fold over cases with
    a CPU-time budget): the concrete runners live with the experiment
    harness, which knows how to build hosts. Because the simulator is
    deterministic, the enumeration is exhaustive and every
    counterexample replays bit-for-bit; non-converging steps are
    reported with the protocol checker's event trace. *)

type case = { component : string; step : string }
(** One crash point: crash [component] right after recovery [step]. *)

type verdict = {
  case : case;
  converged : bool;
  violations : Report.violation list;
      (** What the checkers held against this crash point (empty for a
          bare convergence failure). *)
  trace : string list;
      (** The protocol checker's recent-event trace at the failure —
          the counterexample; empty when converged. *)
}

type outcome = {
  verdicts : verdict list;  (** Enumeration order. *)
  skipped : case list;  (** Budget ran out before these were tried. *)
  elapsed : float;  (** CPU seconds spent searching. *)
}

val enumerate : (string * string list) list -> case list
(** [(component, its recovery steps)] pairs — typically
    [Component.recovery_steps] over a host's components — flattened
    into the crash-point list, preserving order. *)

val search :
  ?budget:float -> cases:case list -> run:(case -> verdict) -> unit -> outcome
(** Run every case through [run], in order. [budget] caps the search
    in CPU seconds: cases beyond it are reported as skipped, never
    silently dropped. *)

val counterexamples : outcome -> verdict list
val ok : outcome -> bool

val report : title:string -> outcome -> Report.t
(** Counterexamples as standard violations, crash-point subjects
    included. *)

val to_json : title:string -> outcome -> Newt_sim.Json.t
(** Full machine verdict: every crash point with its convergence flag,
    counterexamples with violations and event traces, skipped cases,
    elapsed time. *)
