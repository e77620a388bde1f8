(** Named counters and simple distributions.

    A [t] is a registry of metrics a simulated component exposes; the
    experiment drivers read them after a run. *)

(** A streaming latency histogram: HDR-style log-linear buckets with
    64 sub-buckets per power of two, so every recorded value is
    quantized within 1/64 (~1.6%) of its magnitude. Recording is O(1)
    and allocation-free; histograms from different shards {!Hist.merge}
    by adding their bucket counts — the tail of a million-sample
    series costs neither memory proportional to the sample count nor a
    sort per query. Values are non-negative (negative and NaN samples
    are clamped to 0, which still shows up in [min]). *)
module Hist : sig
  type t

  val create : unit -> t

  val record : t -> float -> unit
  (** O(1): bump the bucket holding the value. *)

  val count : t -> int
  val mean : t -> float option

  val merge : into:t -> t -> unit
  (** Fold [src]'s counts into [into] (for cross-shard aggregation). *)

  val percentile : t -> float -> float option
  (** [percentile t p] with [p] clamped to [0,100]: the upper edge of
      the bucket holding the rank-[ceil(p/100 * count)] sample, clamped
      to the exactly-tracked observed minimum and maximum (so [p = 0]
      and [p = 100] are exact). [None] iff nothing was recorded. *)
end

type t

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to a counter, creating it at 0 first if needed. *)

val add : t -> string -> int -> unit
(** Add an arbitrary amount to a counter. *)

val get : t -> string -> int
(** Current counter value; 0 if never touched. *)

val set_max : t -> string -> int -> unit
(** Keep the running maximum of the observed values under this name. *)

val observe : t -> string -> float -> unit
(** Record a sample into a named distribution. *)

val mean : t -> string -> float option
(** Mean of a distribution, if any samples were recorded. *)

val count : t -> string -> int
(** Number of samples recorded into a distribution. *)

val percentile : t -> string -> float -> float option
(** [percentile t name p] with [p] clamped to [0,100]. Small series
    (up to 1024 samples) are answered exactly, sorting on demand
    (numerically, via [Float.compare]): [p = 0.0] is the minimum
    sample, [p = 100.0] the maximum, a single-sample distribution
    returns that sample for every [p]. Larger series are routed
    through a {!Hist} — O(1) per {!observe}, answers within the
    histogram's 1/64 bucket error (min and max stay exact). [None] iff
    no samples were recorded. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)
