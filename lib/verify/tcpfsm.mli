(** TCP state-machine conformance checking.

    The id-level checkers ({!Protocol}, the sanitizer) verify the
    stack's {e channel} contracts; this module verifies its {e
    protocol} contract — the paper's §V-B bug class is a server that
    keeps answering traffic while its TCP state is wrong, which no
    request/confirm pairing can see. Two declarative first-match
    tables do the judging:

    - a {b segment table} over (state × segment class × direction):
      may a connection in this state emit a segment of this class?
      RST-from-Closed is legal (Table I: peers of a crashed server
      are refused); ACK-from-Closed is the bug.
    - a {b transition relation} over (state, cause, state): every
      state change a TCP engine reports must be an RFC-793 edge or a
      Table I crash edge. Closed→Established with no handshake — a
      restarted shard resurrecting stale PCBs — is the bug.

    Events arrive through the [Newt_channels.Hook] TCP family, which
    both the simulated engines and the native runtime's servers
    mirror, so the same checker rides fig4/fig5, the sharded stack,
    the churn workload and real multi-domain runs (the checker takes a
    mutex per event; the hook's per-connection sampling keeps long
    runs cheap).

    The {b static lint} ({!lint_table}) proves the tables before any
    packet flows: totality (every cell has a first match), no dead
    rules (every rule is the first match somewhere), and liveness of
    the relation (every entered state has an exit and is reachable
    from Closed; Listen is never entered). *)

(** {1 The tables} *)

type seg_class = Syn | Syn_ack | Fin | Rst | Ack | Data

val classify : Newt_channels.Hook.tcp_flags -> seg_class
(** Flag-precedence classification: RST > SYN-ACK > SYN > FIN > data
    > bare ACK. *)

val seg_rule_count : int
(** Number of rules in the segment table (for {!lint_dropping}
    sweeps). *)

val describe_rules : unit -> string list
(** One line per segment rule, in match order. *)

val describe_transitions : unit -> string list
(** One line per transition-relation edge. *)

(** {1 The static lint} *)

val lint_table : unit -> Report.t
(** Prove the shipped tables total, deterministic and live (see the
    module preamble). A clean report is the precondition for trusting
    any runtime verdict. *)

val lint_dropping : int -> Report.t
(** Re-lint the segment table with rule [i] removed — the negative
    control: deleting a Deny wildcard must break totality, deleting
    an Allow must orphan nothing silently. *)

(** {1 The runtime checker} *)

val install : unit -> unit
(** Register on the hook's TCP chain (idempotent); clears all checker
    state first. Events may arrive from any domain: the checker
    serializes them on an internal mutex, so one registration serves
    the simulator and the native runtime alike. *)

val uninstall : unit -> unit

val active : unit -> bool
val reset : unit -> unit

val violations : unit -> Report.violation list
val segment_count : unit -> int
val transition_count : unit -> int
val event_count : unit -> int

val overhead_cycles : unit -> int
(** Model-cycle cost had the checker run inline (events ×
    {!cycles_per_event}), for the continuous checker's overhead
    accounting. *)

val cycles_per_event : int

val tracked_connections : unit -> int
(** Live shadow PCBs (transitions to Closed retire their entry, so
    this tracks live connections, not connections ever seen). *)

val state_of :
  lip:int32 -> lport:int -> rip:int32 -> rport:int -> Newt_net.Tcp.state
(** The checker's shadow state for an engine-local 4-tuple; [Closed]
    when unobserved. *)

val trace : unit -> string list
(** The most recent checker events (bounded ring), oldest first — the
    counterexample trace attached to failing verdicts. *)

val crosscheck_conntrack : where:string -> Newt_pf.Conntrack.t -> unit
(** Flag every conntrack entry whose confirmation bit says
    "handshake complete" while the checker's shadow FSM still has the
    PCB in [Syn_received] — drift between the packet filter's
    handshake-shape definition and the state machine's. Connections
    the checker never observed are skipped. Violations land in
    {!violations} under ["conntrack-confirmed-half-open"]. *)

val report : ?title:string -> unit -> Report.t

val verdict_json : unit -> string
(** Mcheck-shaped verdict: [{"component":"tcp-fsm","ok":…,
    "violations":[…],"trace":[…]}] — the same trace-carrying
    counterexample schema the recovery model checker and race
    detector emit, so CI greps are uniform. *)
