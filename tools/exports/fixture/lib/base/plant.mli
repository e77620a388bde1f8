val opened : unit -> int
(** Used only through [open]. *)

val inner : ?x:int -> unit -> int
(** [?x] is passed only by {!Wrap.wrapper} forwarding its own [?x]. *)

val each : ?verbose:bool -> int -> unit
(** Used only as a value ([List.iter each]): [?verbose] is never
    passed. *)

val knob : ?scale:int -> unit -> int
(** Planted: [?scale] is never passed. *)

val unused : int
(** Planted: nothing outside this module uses it. *)

val probe : unit -> int
(** Used only by test/. *)
