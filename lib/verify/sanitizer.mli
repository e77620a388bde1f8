(** Pool-ownership sanitizer.

    An ASan-style dynamic checker for the zero-copy buffer discipline:
    installed on the {!Newt_channels.Hook} event stream, it shadows
    every pool slot's lifecycle — allocation, hand-off over channels,
    receipt, free — together with the identity of the server performing
    each step, and flags the misuses the rich-pointer design is
    supposed to make impossible:

    - {b double-free}: a slot freed twice with [Pool.free] (crash
      reclaim via [free_all] is the owner dying, not a bug — a
      subsequent [free] of such a slot is an ordinary stale pointer the
      recovery paths already absorb);
    - {b free-in-flight}: a slot freed while a message referencing it
      is still queued on some channel — the consumer would dereference
      freed memory;
    - {b non-owner-write}: a server writing into a pool it neither owns
      nor was granted (the driver's DMA grant, {!Hook.event.Pool_grant},
      whitelists the receive pool by design);
    - {b leak}: slots still allocated when {!leaks} is called, in pools
      that were not DMA-granted (a granted pool legitimately keeps its
      receive ring populated).

    Stale-pointer dereferences are {e recorded} ({!stale_count}) but are
    not violations: after a crash they are the designed detection
    mechanism, not a bug (Section IV-D).

    Install the sanitizer {e before} wiring the stack so it captures
    pool-ownership announcements, then [reset] between runs. State is
    global, like the hook itself: the simulator is single-threaded. *)

type violation =
  | Double_free of { ptr : Newt_channels.Rich_ptr.t; actor : string option }
  | Free_in_flight of {
      pool : int;
      slot : int;
      actor : string option;
      in_flight : int;  (** Queued messages still referencing the slot. *)
    }
  | Non_owner_write of {
      pool : int;
      slot : int;
      actor : string;
      owner : string;
    }
  | Cross_incarnation_free of {
      pool : int;
      slot : int;
      actor : string;  (** The server name (same for alloc and free). *)
      alloc_epoch : int;  (** Incarnation that allocated the slot. *)
      free_epoch : int;  (** Incarnation that freed it (> alloc_epoch). *)
    }
      (** A slot allocated by incarnation [k] of a server and freed by a
          {e later} incarnation of the same server: the generic crash
          teardown should have reclaimed it wholesale, so even when pool
          generations line up the free is suspect. DMA-granted pools are
          exempt (device-held ring slots legitimately straddle driver
          incarnations). *)

type leak = {
  pool : int;
  slot : int;
  allocator : string option;  (** Who allocated it. *)
  holder : string option;  (** Who received it last. *)
}

val install : unit -> unit
(** Register on the hook chain (replacing this checker's previous
    registration, if any) and reset all shadow state. *)

val uninstall : unit -> unit
val active : unit -> bool

val reset : unit -> unit
(** Clear shadow state and recorded violations, keep listening. *)

val violations : unit -> violation list
(** In occurrence order. *)

val stale_count : unit -> int
(** Stale-pointer dereferences observed (expected during recovery). *)

val alloc_count : unit -> int
val free_count : unit -> int
val handoff_count : unit -> int

val event_count : unit -> int
(** Total hook events replayed since install/reset. *)

val overhead_cycles : unit -> int
(** Model-cycle cost of the hook instrumentation: {!event_count} times a
    fixed per-event constant (a shadow-table probe). Pure accounting —
    the cycles are {e not} charged to any simulated core — surfaced in
    the bench output so hook-cost regressions stay visible. *)

val leaks : unit -> leak list
(** Slots currently allocated in non-granted pools. Meaningful once the
    run has quiesced; buffers legitimately in flight count until their
    consumer frees them. *)

val describe : violation -> Report.violation
val describe_leak : leak -> Report.violation

val report : ?check_leaks:bool -> title:string -> unit -> Report.t
(** Assemble a {!Report.t} from the recorded violations; with
    [check_leaks] (default false) outstanding {!leaks} are added as
    ["leak"] violations. *)
