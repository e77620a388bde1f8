(** Binned time series, used to record bitrate-over-time traces for the
    paper's Figures 4 and 5.

    Values added at time [t] accumulate into the bin [t / bin_width]. A
    finished series can be read out as (bin start seconds, value) pairs —
    e.g. bytes per 100 ms bin, converted to Mbps by the caller. *)

type t

val create : bin_width:Time.cycles -> t
(** Bins of the given width, starting at time 0. *)

val add : t -> Time.cycles -> int -> unit
(** [add s at v] accumulates [v] into the bin containing time [at]. *)

val bins : t -> ?upto:Time.cycles -> unit -> (float * int) array
(** [bins s ~upto ()] returns one entry per bin from time 0 to [upto]
    (default: the last touched bin), as (bin start in seconds, sum).
    Untouched bins in the range appear with value 0. *)

val mbps : t -> ?upto:Time.cycles -> unit -> (float * float) array
(** Like {!bins} but interpreting sums as byte counts and converting each
    bin to megabits per second. *)
