(** Verification event hook.

    The dependability argument of the paper rests on an ownership
    discipline the types alone cannot enforce: pool slots are
    owner-written and consumer-read-only, hand-offs ride the channels,
    and every slot is reclaimed exactly once — also across crashes,
    where reincarnation reclaims wholesale (Sections V-C/V-D). This
    module is the instrumentation point that makes the discipline
    observable: {!Pool}, {!Request_db}, the server runtime, the native
    loops and the TCP engines emit events through a process-wide hook,
    and checkers such as [Newt_verify.Sanitizer] (slot state machine),
    [Newt_verify.Protocol] (per-message-id request/confirm pairing),
    [Newt_verify.Race] (happens-before) and [Newt_verify.Tcpfsm]
    (RFC-793 conformance) register listeners to replay them and flag
    violations with the culprit's identity.

    {b Three event families, one registry.} Simulator events
    ({!event}), native synchronisation and access events ({!nevent})
    and TCP events ({!tcp_event}) each have a listener chain: {!add},
    {!native_add} and {!tcp_add} register a listener and return a
    token, and {!remove} unregisters a token of any family. A chain is
    an immutable list in an [Atomic] replaced by compare-and-set, so
    registration is safe from any domain and emission iterates a
    stable snapshot. Every registered listener sees every delivered
    event of its family, in unspecified relative order. When a chain is
    empty its emissions are one load and one compare, so production
    runs pay (almost) nothing.

    {b One sampler.} {!set_sample} sets one process-wide period for
    all three families. Sampling keeps or drops whole {e subjects} by
    hash: a pool slot or a request id (simulator), a location
    (native accesses), a connection 4-tuple (TCP). A kept subject's
    events are all delivered and a dropped subject's none, so every
    checker's per-subject state stays coherent; dropping a subject can
    hide a violation but never invent one. Events that scope or order
    every subject are never sampled: pool ownership and grants,
    wholesale frees and database resets, already-detected violations,
    and every native synchronisation event.

    {b Actors.} Attribution needs to know {e who} performed an
    operation. The server runtime brackets all work it runs on behalf
    of a component with {!with_actor}; simulator emissions made outside
    any bracket (device DMA, test harness code) carry no actor. Native
    and TCP listeners get no actor: the emitting domain identifies
    itself. *)

(** {1 Simulator events} *)

type op = [ `Read | `Write | `Free | `Check ]
(** What a failed dereference was attempting. *)

type way = [ `Sent | `Received | `Dropped ]
(** The fate of a protocol message at the emission point: enqueued on
    the channel, dequeued by the consumer, or discarded undelivered
    (refused enqueue or channel teardown). *)

type event =
  | Pool_own of { pool : int; owner : string }
      (** A component declared itself the pool's owning server. *)
  | Pool_grant of { pool : int }
      (** The owner granted write access to a device path (the DMA
          grant of the receive pool): writes to this pool are not
          owner-only anymore. *)
  | Pool_alloc of { pool : int; slot : int; gen : int }
  | Pool_write of { pool : int; slot : int; gen : int }
  | Pool_read of { pool : int; slot : int; gen : int }
  | Pool_free of { pool : int; slot : int; gen : int }
      (** A successful, single free. *)
  | Pool_free_all of { pool : int }
      (** Wholesale reclaim — the owner crashed or reinitialized; not a
          per-slot free and never a violation by itself. *)
  | Pool_double_free of { ptr : Rich_ptr.t }
      (** Emitted just before {!Pool.Double_free} is raised. *)
  | Pool_stale of { ptr : Rich_ptr.t; op : op }
      (** Emitted just before {!Pool.Stale_pointer} is raised. *)
  | Chan_handoff of { chan : int; ptr : Rich_ptr.t }
      (** A rich pointer was enqueued on a channel: the slot is in
          flight until the consumer dequeues it. *)
  | Chan_receive of { chan : int; ptr : Rich_ptr.t }
      (** The consumer dequeued a message carrying the pointer. *)
  | Chan_dropped of { chan : int; ptr : Rich_ptr.t }
      (** The message was discarded undelivered (channel teardown on a
          crash): the hand-off will never complete. *)
  | Req_submit of { db : int; id : int; peer : int }
      (** A request record entered the database: the paper's contract
          now owes this id a confirm or an abort. [db] is the database
          instance (see {!Request_db.db_id}); [peer] the component the
          request was sent to. *)
  | Req_confirm of { db : int; id : int; known : bool }
      (** [Request_db.complete] ran. [known] says whether the id had a
          live record — [false] is the stale-confirm case (a reply from
          a previous incarnation's request), which the databases absorb
          by design. *)
  | Req_abort of { db : int; id : int; peer : int }
      (** The record was removed by an abort sweep ([abort_peer]): the
          obligation is discharged by cancellation, not completion. *)
  | Req_reset of { db : int }
      (** The whole database was dropped (its owner crashed): every
          live record's obligation dies with it. *)
  | Msg_req of { chan : int; id : int; way : way }
      (** A request-bearing message (one carrying a request-db id that
          expects a confirm) was sent, received or dropped. *)
  | Msg_conf of { chan : int; id : int; way : way }
      (** A confirm-bearing message for request [id] was sent, received
          or dropped. Batched confirms emit one event per id. *)

(** {1 Native events}

    Emitted by the native runtime from any domain, carrying only
    integers (a listener identifies the emitting domain with
    [Domain.self]). *)

type nkind = N_pool_slot | N_counter
(** What an {!N_access} touched: a pool slot ([id] = pool,
    [sub] = slot) or a named shared counter ([id] = counter id). *)

type nevent =
  | N_ring_push of { ring : int; index : int }
      (** Producer published element [index] (absolute, un-masked — so
          reused physical slots across wrap-arounds get distinct
          locations) on SPSC ring [ring]. Release edge on the ring's
          tail. *)
  | N_ring_pop of { ring : int; index : int }
      (** Consumer took element [index] off ring [ring]. Acquire edge
          on the ring's tail, release edge on its head (the producer
          acquires the head before reusing the slot). *)
  | N_post of { loop : int }
      (** A closure was posted cross-domain into loop [loop]'s inbox,
          under the loop mutex. Release edge on the inbox. *)
  | N_drain of { loop : int }
      (** Loop [loop] transferred its inbox under the mutex. Acquire
          edge on the inbox. *)
  | N_park of { loop : int }  (** Loop [loop] is about to block. *)
  | N_wake of { loop : int }
      (** Loop [loop] resumed after parking. Acquire edge on the inbox
          (the wake saw the poster's signal through the same mutex). *)
  | N_loop_start of { loop : int }
      (** Loop [loop] started running on its domain. Acquire edge on
          the spawn fence: everything the spawning thread did before
          {!N_spawn_fence} happens-before the loop body. *)
  | N_loop_stop of { loop : int }  (** Loop [loop] exited its run loop. *)
  | N_spawn_fence
      (** The spawning thread is about to [Domain.spawn] the loops:
          wiring-time writes are published. Release edge on the spawn
          fence; also tells the detector that SPSC ownership claims
          start now (pre-spawn wiring pushes don't bind a ring to the
          spawner's domain). *)
  | N_lock of { lock : int; acquire : bool }
      (** A pool mutex was taken ([acquire = true], emitted after
          [Mutex.lock]) or is about to be dropped ([acquire = false],
          emitted before [Mutex.unlock]). Acquire/release edges on the
          lock's clock — two separate events so accesses inside the
          critical section are ordered by the release. *)
  | N_access of { kind : nkind; id : int; sub : int; write : bool }
      (** A plain (unsynchronised-by-construction) access to a shared
          location, subject to sampling. *)

(** {1 TCP events}

    The feed for the TCP state-machine conformance checker
    ([Newt_verify.Tcpfsm]). TCP engines mirror every PCB state
    transition and every segment sent/received through these events,
    in the simulator and on the native runtime alike. They carry only
    integers — this library sits below [Newt_net], so states travel as
    codes ([Newt_net.Tcp.state_code]) and addresses as raw [int32]s —
    and are always {e local-oriented}: [lip]/[lport] is the emitting
    engine's own end of the connection for both directions, so a
    checker keys its shadow PCB table uniformly. *)

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool; data : bool }
(** Header flags of a segment; [data] is payload-length > 0. *)

(** Why a state transition happened: an API call (connect/close/abort),
    a timer (retransmission exhaustion, 2MSL expiry), a crash
    (wholesale [shutdown_all] — the paper's Table I semantics), or a
    segment received/sent with the given flags. *)
type tcp_cause =
  | T_api
  | T_timer
  | T_crash
  | T_rx of tcp_flags
  | T_tx of tcp_flags

type tcp_event =
  | T_state_change of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      from_s : int;
      to_s : int;
      cause : tcp_cause;
    }
      (** A PCB moved from state code [from_s] to [to_s]. Emitted
          before the assignment takes effect. *)
  | T_seg_tx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }
      (** The engine emitted a segment on connection
          [(lip,lport,rip,rport)] (local end first). *)
  | T_seg_rx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }
      (** The engine accepted a segment for demultiplexing. *)

(** {1 Registry} *)

type listener = actor:string option -> event -> unit

type token
(** Handle identifying one registered listener, of any family. *)

val add : listener -> token
(** Register a simulator-event listener; it sees every subsequent
    delivered event until {!remove}d. *)

val native_add : (nevent -> unit) -> token
(** Register a native-event listener. It runs on whichever domain
    emits, so it must be thread-safe. *)

val tcp_add : (tcp_event -> unit) -> token
(** Register a TCP-event listener. Native TCP engines emit from their
    own domains, so a listener used there must be thread-safe. *)

val remove : token -> unit
(** Unregister the listener a token names, whatever its family;
    unknown or already-removed tokens are a no-op. An event already
    being delivered may still reach it. *)

val enabled : unit -> bool
(** Whether any simulator listener is registered — use to skip costly
    event construction. *)

val native_enabled : unit -> bool
val tcp_enabled : unit -> bool

(** {1 Sampling} *)

val set_sample : int -> unit
(** Keep one in [n] subjects of every family (rounded up to a power
    of two; 1 keeps everything) and reset the counters. *)

val sample : unit -> int
(** The effective (power-of-two) period. *)

val subject_kept : int -> bool
(** The sampler's verdict on a subject hash under the current period.
    For checkers that sample subjects of their own (the race
    detector's ring elements), so that one period governs them too.
    Counts nothing. *)

type family = Sim | Native | Tcp

val counts : family -> int * int
(** [(seen, kept)] sampleable emissions of a family that reached a
    registered listener since {!set_sample}. Counted only while the
    period is above 1. *)

(** {1 Emission} *)

val emit : event -> unit
(** Deliver a simulator event, with the current actor, to every
    simulator listener, unless its subject is sampled out. *)

val epoch : unit -> int
(** The restart epoch (the actor's incarnation number) the current
    bracket was opened with; 0 outside any bracket or when the bracket
    did not stamp one. Listeners use it to tell incarnation [k] of a
    server from incarnation [k+1] of the same name. *)

val with_actor : ?epoch:int -> string -> (unit -> 'a) -> 'a
(** [with_actor name f] runs [f] with emissions attributed to [name];
    the previous attribution is restored afterwards, also on
    exceptions. [epoch] additionally stamps the actor's incarnation
    number into the bracket (the server runtime passes its restart
    counter), readable by listeners via {!epoch}. *)

val native_emit : nevent -> unit
(** Deliver a synchronisation event to every native listener. Never
    sampled: dropping one could invent a false race. *)

val native_access : nkind -> id:int -> sub:int -> write:bool -> unit
(** Deliver an {!N_access}, unless its location [(kind, id, sub)] is
    sampled out. *)

val tcp_emit : tcp_event -> unit
(** Deliver a TCP event to every TCP listener, unless its connection
    is sampled out. *)
