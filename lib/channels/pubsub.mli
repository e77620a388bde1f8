(** Publish-subscribe channel directory.

    There is no global manager in the system (Section IV-C): when a
    server starts, it announces its channels and pools by publishing
    key-value pairs; servers subscribed to a key are notified and can
    then request an export and attach. The directory also replays
    existing publications to late subscribers, which is what lets a
    restarted server rediscover its world. *)

type t

type publication = {
  key : string;  (** Meaningful name, e.g. ["ip.rx"]. *)
  creator : int;  (** Publishing process id. *)
  chan_id : int;  (** Unique id of the channel or pool. *)
}

val create : unit -> t

val publish : t -> key:string -> creator:int -> chan_id:int -> unit
(** Announce a channel. Republishing a key replaces the previous entry
    (a restarted creator keeps the identification, Section IV-D) and
    re-notifies subscribers. *)

val unpublish : t -> key:string -> unit
(** Withdraw a key, notifying subscribers with [`Gone]. *)

val lookup : t -> key:string -> publication option

val subscribe :
  t -> key:string -> ([ `Published of publication | `Gone ] -> unit) -> unit
(** Register interest in a key. If the key is already published the
    callback fires immediately with the current publication. *)

val subscribe_prefix :
  t -> prefix:string -> ([ `Published of publication | `Gone ] -> unit) -> unit
(** Register interest in every key starting with [prefix] — the
    learn-broadcast primitive: replicated servers announce discoveries
    (e.g. ARP bindings) under a shared prefix and every peer hears
    them. Existing matching publications are replayed immediately, in
    publish order. *)

val replay_prefix :
  t -> prefix:string -> ([ `Published of publication | `Gone ] -> unit) -> unit
(** Replay the current publications whose key starts with [prefix],
    without subscribing — how a restarted replica re-warms caches it
    lost in the crash. Entries are re-delivered in publish order (a
    republished key takes the position of its latest publication), so a
    re-warming replica converges to the same state the live peers built
    up incrementally. *)
