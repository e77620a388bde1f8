(** Bounded trace log of simulation events.

    Components append human-readable entries tagged with the simulated
    time; experiments and tests inspect or print them. The log is bounded
    so long runs cannot exhaust memory. *)

type t

type entry = { at : Time.cycles; subsystem : string; message : string }

val create : ?capacity:int -> unit -> t
(** Keep at most [capacity] (default 65536) most recent entries. *)

val record : t -> at:Time.cycles -> subsystem:string -> string -> unit

val entries : t -> entry list
(** Oldest first. *)

val find : t -> subsystem:string -> entry list
(** Entries from one subsystem, oldest first. *)
