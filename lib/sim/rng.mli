(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator draws from an explicit [t] so
    that simulations are reproducible from a seed and independent streams
    can be split off for independent subsystems (fault injection, link
    loss, workload jitter). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin flip. *)

val weighted : t -> (int * 'a) list -> 'a
(** [weighted t choices] draws one of the values with probability
    proportional to its integer weight. Requires a positive total weight. *)
