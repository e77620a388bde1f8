(** JSON values and their one compact printer.

    Every machine-readable output (checker verdicts, run results,
    benchmark lines) is built as a [t] by the code that owns the data
    and rendered once, by the executable, with {!to_string}. There is
    no parser: consumers read the printed text. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with [d] digits after the point,
          exactly as [Printf.sprintf "%.*f" d x]; a non-finite [x]
          prints as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Keys print in list order. *)

val strings : string list -> t
(** A list of strings. *)

val ints : (string * int) list -> t
(** An object of integer fields. *)

val to_string : t -> string
(** Compact rendering, no whitespace. Strings escape the double
    quote, the backslash, newline and tab as two-character sequences
    and every other byte below 0x20 as [\u00XX]; all other bytes pass
    through unchanged. *)
