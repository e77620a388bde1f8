(** Continuous verification across restarts.

    PR 3's checkers ran once, at wiring time — a buggy recovery
    procedure (Table I) that rewires a channel to the wrong core or
    loses an export after a restart sailed through every fault campaign
    undetected. This module is the aggregation point that closes the
    gap: the experiment drivers call {!recheck} after {e every}
    reincarnation (re-running {!Static.check} against the live
    post-restart topology, re-derived from the Pubsub directory and
    each component's republished exports) and {!end_run} once each
    run's tail has drained (absorbing the {!Sanitizer}'s violations and
    end-of-run leak accounting). The result is one verdict and one
    counter block — re-checks, violations, leaks, stale derefs, hook
    overhead in model cycles — per run and for the campaign as a
    whole, surfaced in the CLI/bench JSON so hook-cost regressions are
    visible. *)

(** Per-run (and aggregate) verifier/sanitizer counters. *)
type counters = {
  re_checks : int;  (** Static re-checks performed (one per restart). *)
  static_violations : int;
  sanitizer_violations : int;
  leaks : int;  (** Slots still allocated once the run quiesced. *)
  stale_derefs : int;
  allocs : int;
  frees : int;
  handoffs : int;
  hook_events : int;
  hook_overhead_cycles : int;
      (** {!Sanitizer.overhead_cycles} — instrumentation cost in model
          cycles (accounting only, never charged to simulated cores). *)
  protocol_violations : int;
      (** Dynamic request/confirm contract breaches ({!Protocol}). *)
  protocol_requests : int;  (** Request obligations opened. *)
  protocol_confirms : int;  (** Obligations met by a confirm. *)
  protocol_aborts : int;  (** Obligations discharged by an abort sweep. *)
  protocol_stale_confirms : int;
      (** Confirms for crash-closed conversations, absorbed by design. *)
  protocol_events : int;  (** Protocol hook events replayed. *)
  tcpfsm_violations : int;
      (** TCP FSM conformance breaches ({!Tcpfsm}): illegal
          transitions, wrong-state segments, conntrack drift. *)
  tcpfsm_segments : int;  (** Segments judged by the rule table. *)
  tcpfsm_transitions : int;  (** State transitions judged. *)
  tcpfsm_overhead_cycles : int;  (** {!Tcpfsm.overhead_cycles}. *)
}

type t

val create : unit -> t

val recheck : t -> (unit -> Report.t) -> unit
(** Run one static re-check (the thunk typically wraps
    {!Static.check} over the live host) and absorb its verdict into
    the run in progress. Experiment drivers call this from the
    reincarnation server's post-restart notification. *)

val end_run : ?check_leaks:bool -> t -> unit
(** Close the run in progress: absorb the sanitizer's violations (and,
    with [check_leaks], its outstanding slots as leaks — only
    meaningful once the run drained its in-flight buffers), absorb the
    protocol checker's verdict when it is active ([check_leaks] also
    closes its trace via {!Protocol.finish}[ ~drained:true]: the same
    quiescence that makes outstanding slots leaks makes open request
    obligations violations), absorb the TCP FSM checker's verdict when
    it is active ({!Tcpfsm}), append the run's counter block, and
    reset every active checker's shadow state for the next run (the
    listeners stay installed). With no checker active only the
    static-recheck counters are recorded. *)

val runs : t -> counters list
(** Counter blocks of completed runs, oldest first. *)

val totals : t -> counters
(** Sum over completed runs plus the run in progress. *)

val ok : t -> bool
(** No static violations, sanitizer violations, or leaks anywhere. *)

val report : title:string -> t -> Report.t
(** Everything collected, as a standard verifier report. *)

val json : t -> (string * Newt_sim.Json.t) list
(** The fields ["counters"] (totals) and ["run_counters"] (one block
    per run), for the caller to place in its own object. *)
