(** Used only packed as a first-class module. *)

type t = int

val compare : t -> t -> int
