(** The server runtime: a single-threaded, event-driven OS component
    pinned to a core.

    A server owns a set of receive channels. When a message arrives
    while the server is idle, the channel's notify hook (the
    MONITOR/MWAIT write) wakes it; the server then drains its channels
    round-robin, one message at a time, paying the modelled cycle costs
    on its core for each. Servers never block on each other — the
    asynchronous style of Section III-B.

    Crash/hang/restart support matches the reincarnation protocol: a
    {e crashed} server stops processing and loses its incarnation's
    queued work (continuations are guarded by the incarnation number); a
    {e hung} server stays alive but stops draining, which heartbeats
    eventually notice. A restart bumps the incarnation and runs the
    component's recovery hook. *)

type t

type handler = Msg.t -> Newt_sim.Time.cycles * (unit -> unit)
(** Per-message work: (processing cost on the server's core, effect to
    run when the cost has been paid). The runtime separately charges the
    per-message dequeue/demux/cache-stall costs and the pool operations
    the work performs ({!pool_ops}). *)

val create :
  Newt_hw.Machine.t ->
  name:string ->
  core:Newt_hw.Cpu.t ->
  ?trace:Newt_sim.Trace.t ->
  unit ->
  t

val name : t -> string
val pid : t -> int
(** Unique process id (also used as the request-database peer key). *)

val core : t -> Newt_hw.Cpu.t
val stats : t -> Newt_sim.Stats.t
val incarnation : t -> int

val migrate : t -> Newt_hw.Cpu.t -> unit
(** Move the server onto another core. Legitimate restarts never do
    this — it models a broken recovery procedure reviving a component
    on the wrong core, which the continuous verifier's core-affinity
    check must catch. *)

val add_rx : t -> Msg.t Newt_channels.Sim_chan.t -> handler -> unit
(** Start consuming a channel. The handler may be replaced by calling
    [add_rx] again for the same channel. *)

val send : t -> Msg.t Newt_channels.Sim_chan.t -> Msg.t -> bool
(** Non-blocking enqueue (the ~30-cycle fast path; the caller's handler
    cost should include {!Costs}' marshalling figure). [false] = full or
    torn down; the caller picks its drop/queue policy. *)

val exec : t -> cost:Newt_sim.Time.cycles -> (unit -> unit) -> unit
(** Run work on the server's core, guarded by liveness+incarnation. *)

val after : t -> Newt_sim.Time.cycles -> cost:Newt_sim.Time.cycles -> (unit -> unit) -> unit
(** Timer: like {!exec} after a delay. The continuation is dropped if
    the server crashed or restarted in between. *)

val wake : t -> unit
(** Force a drain pass (used after restarts). *)

val pool_ops : t -> int
(** Pool operations this server has been charged for, across
    incarnations. The runtime meters every handler, effect and {!exec}
    or {!after} continuation it runs for the server
    ({!Newt_channels.Pool.metered}) and charges {!Newt_hw.Costs}'
    [pool_op] on the server's core for each [Pool.alloc] and
    [Pool.free] the work performed: operations in a handler's body are
    added to its cost, those in an effect or continuation are charged
    right after it. Crash and restart notifications are not charged. *)

val set_send_overhead : (unit -> unit) option -> unit
(** Process-wide extra work charged on every {!send} — the native
    cross-validation harness uses it to re-create the cost model's
    channel ablations (kernel trap per message, copy per hop) on real
    domains. Set before spawning domains; [None] (the default) in all
    simulated runs. *)

(** {1 Failure injection and recovery} *)

val alive : t -> bool
val responsive : t -> bool
(** Alive and not hung — what a heartbeat probe observes. *)

val crash : t -> unit
(** Stop everything; queued continuations die with the incarnation. *)

(** {2 Live update (Section V)}

    A graceful replacement is very different from a crash: the
    component announces the update, quiesces, saves its state, and the
    new version {e inherits the old version's address space, so the
    channels remain established}. Messages arriving during the swap
    simply queue; nothing is aborted or resubmitted. *)

val begin_update : t -> unit
(** Quiesce: stop draining channels. The server still answers
    heartbeats (the reincarnation server knows about the update). *)

val finish_update : t -> unit
(** The new version takes over: bump the code version, resume draining
    whatever queued during the swap. State and incarnation are
    preserved — the update is invisible to neighbours. *)

val version : t -> int
(** Code version, bumped by each live update. *)

val updating : t -> bool

val hang : t -> unit
(** Keep the process alive but stop it from making progress. *)

val set_on_crash : t -> (unit -> unit) -> unit
(** Hook run at crash time (tear down exported channels, mark devices
    unsafe) — the moment the rest of the world can observe. *)

val set_on_restart : t -> (fresh:bool -> unit) -> unit
(** Recovery procedure. [fresh] is false when restarting after a crash
    (the server should try to recover state from the storage server,
    Section V-D). *)

val restart : t -> unit
(** Bump the incarnation, mark alive, run the restart hook. *)

val start_fresh : t -> unit
(** First boot: run the restart hook with [fresh:true]. *)
