(** The request database.

    Single-threaded asynchronous servers must remember which requests
    they injected into which channels, together with the data associated
    with each request and an {e abort action} to run if the peer serving
    the request crashes (Section IV, IV-D). The database generates a
    unique identifier per request; replies are matched by identifier.

    On a neighbour crash the owner calls {!abort_peer}, which removes
    every outstanding request addressed to that peer and runs its abort
    action — retransmit, drop, or propagate an error, at the server's
    discretion.

    Every submit, confirm and abort is mirrored onto the {!Hook} event
    stream ([Req_submit]/[Req_confirm]/[Req_abort]/[Req_reset]) so the
    dynamic protocol checker can replay the request/confirm contract.

    Outstanding requests are kept in flat arrays (an open-addressed
    table keyed by id), so a waiting request holds no heap block of its
    own, and a request that completes or aborts is dropped from them:
    only the first payload the database was ever given stays reachable,
    as the filler of free slots. A server whose abort action is the same
    for every request should pass one preallocated closure. *)

type 'a t
(** A database holding per-request payloads of type ['a]. *)

type id = int
(** Request identifiers. {e Globally} unique across every database
    instance for the whole process lifetime — identifiers are never
    reused, not even by the fresh database a reincarnated server
    creates, so replies to pre-crash requests can be recognized as
    stale and can never alias a live request (Section V-D: "We
    generate new identifiers so that we can ignore replies to the
    original requests"). *)

type 'a abort = id -> 'a -> unit
(** Abort action, given the request id and payload. *)

exception Abort_cycle of { db : int; peer : int; depth : int }
(** Raised by {!abort_peer} when deferred re-entrant sweeps keep
    re-queueing peers past a fixed depth cap — abort actions are
    resubmitting to (and re-aborting) the same peers cyclically, and
    unbounded deferral would never terminate. [db] identifies the
    database, [peer] the sweep that hit the cap, [depth] the number of
    sweeps already drained. *)

val create : unit -> 'a t

val db_id : 'a t -> int
(** Process-unique identity of this database instance, as carried by
    the [Req_*] hook events. A server's reincarnation creates a new
    database with a new id. *)

val submit : 'a t -> peer:int -> payload:'a -> abort:'a abort -> id
(** Record an in-flight request addressed to [peer]. *)

val complete : 'a t -> id -> 'a option
(** A reply arrived: remove and return the payload. [None] means the id
    is unknown — typically a stale reply from before a crash, which the
    caller must ignore. *)

val peek : 'a t -> id -> 'a option
(** Look at an in-flight payload without removing it. *)

val abort_peer : 'a t -> peer:int -> int
(** Remove all requests addressed to [peer], running each abort action.
    Returns how many were aborted. Abort actions run in submission
    order, and every doomed record is removed {e before} the first
    abort runs, so an abort action never observes itself (or a doomed
    sibling) as still outstanding.

    Re-entrancy contract: an abort action may itself call [abort_peer]
    on the same database (a cascading crash notification). The nested
    call does not run a second sweep on the stack — it queues its peer
    and returns [0]; the outermost sweep drains queued peers, in
    arrival order, before returning (and its count includes their
    aborts). Submitting new requests from an abort action is allowed;
    they survive unless addressed to a queued peer. Deferral is
    bounded: past a fixed number of drained sweeps the outermost call
    raises {!Abort_cycle} instead of looping forever. *)

val reset_signal : 'a t -> unit
(** Announce on the hook stream that this database is being discarded
    wholesale (its owner crashed): emits [Req_reset] so checkers close
    every obligation the database still held. Does not modify the
    database — the owner drops its reference right after. *)

val outstanding : 'a t -> int
(** Number of in-flight requests. *)

val outstanding_to : 'a t -> peer:int -> int
(** Number of in-flight requests addressed to [peer]. *)

val iter : 'a t -> (id -> peer:int -> 'a -> unit) -> unit
(** Visit in-flight requests in submission order. *)
