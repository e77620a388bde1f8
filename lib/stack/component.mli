(** The generic component-server core.

    Every server in the split stack (driver, IP, packet filter, TCP,
    UDP, SYSCALL) is the same machine wearing different clothes: a
    single-threaded process pinned to a core, draining bounded
    non-blocking channels, keeping a request database whose entries can
    be aborted when a peer dies, and able to crash and come back with
    only its recoverable state.  A [Component.t] owns all of that
    machinery once; a server module reduces to a message handler plus a
    (de)serializer for whatever state it wants to survive a restart.

    Lifecycle, installed once at [create]:

    - on crash: custom crash hooks (registration order, so the server's
      own state reset runs before any supervisor-added notification),
      then every registered request DB is emptied, every registered
      buffer pool is freed wholesale, and every consumed channel is
      torn down so senders see the death immediately.
    - on restart: consumed channels are revived, custom restart hooks
      run (server first, supervisor additions after), and every
      exported channel key is republished to the directory so peers
      re-resolve.

    The component also keeps a per-incarnation counter archive: crash
    hooks may bank counters from state that dies with the incarnation
    (e.g. a TCP engine's segment counts) with [archive_add], and
    readers add [archived] to the live counter to see totals that
    neither double-count nor vanish across restarts. *)

module Time = Newt_sim.Time
module Stats = Newt_sim.Stats
module Cpu = Newt_hw.Cpu
module Machine = Newt_hw.Machine
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Pubsub = Newt_channels.Pubsub

module Defaults : sig
  (** One source of truth for the paper's reincarnation figures
      (Section IV-D): servers answer heartbeats every 100 ms and a
      crashed server is restarted 120 ms after detection. *)

  val heartbeat_period : Time.cycles
  val restart_delay : Time.cycles
end

type t

val create :
  Machine.t ->
  name:string ->
  core:Cpu.t ->
  ?directory:Pubsub.t ->
  unit ->
  t
(** Create the component's process on [core] and install the generic
    crash/restart lifecycle. The component owns the process's
    [on_crash]/[on_restart] slots; supervisors add behavior with
    [on_crash]/[on_restart] below instead of touching the process. *)

(** {1 Identity} *)

val machine : t -> Machine.t
val proc : t -> Proc.t
val name : t -> string
val pid : t -> int
val core : t -> Cpu.t

(** {1 Heartbeat surface}

    The reincarnation server's health probe: a component is [alive]
    until it crashes and [responsive] while it would answer a heartbeat
    within the round (alive and not hung). *)

val alive : t -> bool
val responsive : t -> bool
val incarnation : t -> int

(** {1 Channel registry} *)

val consume : t -> Msg.t Sim_chan.t -> Proc.handler -> unit
(** Register an inbound channel: the process drains it, and the
    lifecycle tears it down on crash / revives it on restart. *)

val produce :
  t -> ?policy:[ `Drop | `Block ] -> ?shared:bool -> Msg.t Sim_chan.t -> unit
(** Declare an outbound endpoint, for the static verifier's topology.
    [policy] records what the server does on a full channel: [`Drop]
    (the default — the paper's non-blocking discipline) or [`Block]
    (the server spins until space frees, an edge in the blocking-wait
    graph). [~shared:true] marks a fan-out endpoint that other
    components also declare (e.g. every IP replica holds the full
    transport channel array); shared declarations are exempt from the
    single-producer check. Re-declaring the same channel replaces the
    previous declaration. *)

val export : t -> key:string -> Msg.t Sim_chan.t -> unit
(** Register an outbound channel under a directory [key]: published
    immediately (when a directory was given) and republished after
    every restart so peers can re-resolve the channel. *)

(** {1 Topology introspection}

    Read-only views for the static stack verifier, reflecting the
    declarations made during wiring. *)

val produced : t -> (Msg.t Sim_chan.t * [ `Drop | `Block ] * bool) list
(** Declared outbound endpoints, as [(chan, policy, shared)]. *)

val consumed : t -> Msg.t Sim_chan.t list
(** Inbound channels in registration order. *)

val exports : t -> (string * Msg.t Sim_chan.t) list
(** Directory keys this component (re)publishes, with their channels. *)

val pools : t -> Pool.t list
(** Buffer pools owned by (and freed with) this component. *)

(** {1 Recoverable resources} *)

val register_pool : t -> Pool.t -> unit
(** Freed wholesale when the component crashes: zero-copy buffers are
    part of the incarnation, never of the recoverable state. Announces
    ownership to the sanitizer hook (install the sanitizer before
    wiring the stack to capture it). *)

val on_crash : t -> (unit -> unit) -> unit
(** Append a custom crash hook; hooks run in registration order before
    the generic teardown (DBs, pools, channels). *)

val on_restart : t -> ?step:string -> (fresh:bool -> unit) -> unit
(** Append a custom restart hook; hooks run after consumed channels
    are revived and before exports are republished. [?step] gives the
    hook a name in the component's labeled recovery procedure (see
    {!recovery_steps}); unlabeled hooks run but are not individually
    addressable as crash points. *)

val on_restarted : t -> ?step:string -> (unit -> unit) -> unit
(** Append a post-recovery hook: runs after the restart hooks {e and}
    after the exports were republished, i.e. once the new incarnation
    is fully advertised. This is where broken-recovery sabotage (and
    anything else that must observe or undo the republish) lives.
    [?step] labels it as a recovery step, like {!on_restart}'s. *)

(** {1 Labeled recovery procedure}

    Every component's recovery is a fixed sequence of steps: the
    built-in ["revive-channels"] (consumed channels revived), the
    labeled restart hooks in registration order, the built-in
    ["republish-exports"] (directory keys republished), then the
    labeled post-recovery hooks. The model checker enumerates these
    names and, via {!arm_crash_after}, crashes the component right
    {e after} each one — modelling a server that dies mid-recovery —
    to check the stack converges from every crash point (Table I's
    procedures restarted from anywhere). *)

val recovery_steps : t -> string list
(** The component's labeled recovery steps, in execution order. *)

val arm_crash_after : t -> step:string -> unit
(** One-shot injector: the next time recovery executes [step], crash
    the component immediately after the step completes (full generic
    teardown runs; the remaining recovery steps do not). The arming is
    consumed when it fires. Arming a step this component never
    executes simply never fires. *)

val disarm_crash : t -> unit
(** Drop any pending {!arm_crash_after} arming. *)

val armed_crash : t -> string option
(** The step a pending arming waits for, if any. *)

(** {1 Fault injection / recovery} *)

val crash : t -> unit
val hang : t -> unit
val restart : t -> unit

val migrate : t -> Cpu.t -> unit
(** {!Proc.migrate} for the component's process: model a recovery that
    brings the server up on the wrong core. *)

(** {1 Request database}

    A request DB owned by a component is recreated empty when the
    component crashes — outstanding requests die with the incarnation;
    recovery re-issues them from the peers' side. *)

module Db : sig
  type 'a t

  val submit :
    'a t -> peer:int -> payload:'a -> abort:'a Newt_channels.Request_db.abort -> int

  val complete : 'a t -> int -> 'a option

  val abort_peer : 'a t -> peer:int -> int
  (** Run the abort action of (and drop) every request submitted
      against [peer]; returns how many were aborted. *)
end

val create_db : t -> 'a Db.t

(** {1 Per-incarnation counter archive} *)

val archive_add : t -> string -> int -> unit
(** Bank [n] into the archive under [key]; meant for crash hooks that
    save counters from state dying with the incarnation. *)

val archived : t -> string -> int
(** Total banked across all dead incarnations. *)
