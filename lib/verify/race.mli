(** [Verify.Race] — concurrency checking for the native runtime.

    The simulator's verifier (static channel graph, sanitizer,
    protocol, mcheck) never sees the native runtime's real
    concurrency: OCaml 5 domains over hand-rolled SPSC rings, a
    spin-then-park doorbell and a granted receive pool. This module
    checks that surface in two cooperating layers:

    {b 1. Static domain-ownership lint} ({!Plan}, {!check_plan}): the
    native pinning plan is lowered to a table of mutable resources —
    rings, pools, inboxes, timer wheels, counters, tables — each with
    its writers, readers and the synchronisation primitive its
    cross-domain edges ride. The lint proves every edge that spans two
    domains goes through a sanctioned primitive (an SPSC ring with
    exactly one producer and one consumer domain, an [Atomic], the
    park mutex, or the pool lock) and flags everything else: a ring
    with two producers, an unsynchronised structure written on one
    domain and touched on another, a pool slot writable off-owner
    without a grant, a producer/consumer pair collapsed onto one
    domain when spare domains existed.

    {b 2. Dynamic vector-clock happens-before checker} ({!Dynamic}):
    consumes the {!Newt_channels.Hook} native event family emitted by
    [Spsc_queue] push/pop, [Loop] post/drain/park/wake and [Pool]
    slot hand-offs, maintains one vector clock per domain joined at
    every release/acquire edge (ring tail and head, inbox mutex, pool
    lock, the spawn fence), and reports any two accesses to the same
    location that are unordered by those edges — with both access
    stacks and a replayable event trace, in the same {!Report} shape
    as the model checker's counterexamples. It additionally enforces
    SPSC ownership dynamically: the first domain to push (pop) a ring
    after the spawn fence claims its producer (consumer) end, and any
    later access from a different domain is flagged even if the
    interleaving happened to be clock-ordered. *)

(** {1 Static layer} *)

module Plan : sig
  (** A sanctioned cross-domain primitive. *)
  type prim =
    | Ring  (** SPSC ring: release on push/tail, acquire on pop. *)
    | Atomic  (** An [Atomic.t] with release/acquire semantics. *)
    | Park_mutex  (** A loop's inbox mutex + condition variable. *)
    | Pool_lock  (** A pool's free-list mutex (native pools only). *)

  type kind = Ring_buf | Pool | Inbox | Counter | Timer_wheel | Table

  type resource = {
    res : string;  (** Display name, e.g. ["ring ip.to_pf"]. *)
    kind : kind;
    owner : string option;  (** Pools: the owning component. *)
    writers : string list;  (** Components that mutate it. *)
    readers : string list;  (** Components that read it. *)
    grants : string list;
        (** Sanctioned non-owner writers (the driver's DMA grant on
            the receive pool). *)
    via : prim option;
        (** The primitive cross-domain edges ride; [None] means the
            structure is claimed domain-local (flagged if its touching
            components resolve to two run-time domains). *)
  }

  type t = {
    domains : int;  (** Run-time domain count. *)
    placement : (string * int) list;
        (** Component → domain. Domain [-1] marks wiring-time-only
            components (their writes are published by [Domain.spawn]);
            an index [>= domains] marks the spawning thread itself,
            which runs concurrently with every loop. *)
    resources : resource list;
  }
end

val check_plan : ?title:string -> Plan.t -> Report.t
(** Run the ownership lint over a pinning plan. Checks: [pinned]
    (every component that touches a resource is placed), [ring-spsc]
    (exactly one producer and one consumer per ring), [ring-collapse]
    (producer and consumer on one domain while spare domains existed —
    safe, but the parallelism the plan promised is gone), [cross-domain]
    (an unsynchronised structure written on one run-time domain and
    touched on another), [pool-owner] (every pool writer is the owner
    or holds a grant). *)

(** {1 Dynamic layer} *)

module Dynamic : sig
  type labels = {
    ring_name : int -> string;
    pool_name : int -> string;
    counter_name : int -> string;
    loop_name : int -> string;
  }
  (** How to render the integer ids carried by native events; the
      native runtime passes its ring/loop naming so counterexamples
      read like the topology. *)

  type access_view = {
    who : string;  (** Domain label ("main", "loop0 tcp+pf", …). *)
    what : string;  (** "ring push", "pool write", … *)
    seq : int;  (** Global event sequence number. *)
    stack : string list;  (** Captured backtrace, one frame per line. *)
  }

  type race_view = {
    check : string;
        (** ["hb-race"] for an unordered access pair, ["ring-producer"]
            / ["ring-consumer"] for an SPSC ownership violation. *)
    loc : string;  (** The contested location. *)
    first : access_view;
    second : access_view;
    trace : string list;
        (** The tail of the global event trace up to detection — the
            replayable interleaving, mcheck-counterexample style. *)
  }

  type outcome = {
    races : race_view list;
    suppressed : int;
        (** Races beyond the report cap, counted but not recorded. *)
    events : int;  (** Sync + access events processed. *)
    accesses_seen : int;
        (** {!Newt_channels.Hook.native_access} calls while armed. *)
    accesses_kept : int;  (** … of which survived sampling. *)
    sample : int;  (** The hook's sampling period at arming. *)
    domains_seen : int;
    locations : int;  (** Distinct locations tracked. *)
    sync_objects : int;  (** Distinct clocks (rings ×2, inboxes, locks). *)
    overhead_cycles : int;
        (** Modelled instrumentation cost, same accounting family as
            [Sanitizer.overhead_cycles]. *)
  }

  val arm : ?labels:labels -> unit -> unit
  (** Register the detector as a native hook listener (replacing its
      previous registration, if any) and reset all state. The hook's
      sampling period ({!Newt_channels.Hook.set_sample}) governs which
      locations are checked, ring elements included; clock joins are
      never sampled (sampling can hide a race, never invent one). Call
      from the spawning thread before wiring. *)

  val fence : unit -> unit
  (** Emit the spawn fence: wiring is done, loops are about to spawn.
      Ring ownership claims start after this point. *)

  val disarm : unit -> outcome
  (** Unregister the listener and return everything found. *)

  val ok : outcome -> bool

  val report : title:string -> outcome -> Report.t
  (** The unified verifier shape: one violation per race, culprit =
      the two domains, detail carries both (truncated) stacks. *)

  val to_json : title:string -> outcome -> Newt_sim.Json.t
  (** The verdict as a JSON value, in the shape verify/mcheck share:
      top-level ["ok"]/["checks"]/["violations"] as in
      {!Report.to_json} (one {!Report.violation_json} per race), plus
      ["counterexamples"] carrying full stacks and the event trace
      (mcheck-style) and a ["counters"] block with the sampling and
      overhead accounting. *)
end
