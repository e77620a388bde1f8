(** Simulated time.

    The simulator counts CPU cycles of the reference clock. The paper's
    evaluation machine is a 1.9 GHz AMD Opteron 6168; [cycles_per_second]
    defaults to that frequency. All simulated costs are expressed in cycles
    so that the cost figures quoted in the paper (150-cycle hot SYSCALL,
    30-cycle channel enqueue, ...) can be used directly. *)

type cycles = int
(** A duration or an absolute point in time, in cycles. 63-bit ints give
    us ~153 years of simulated time at 1.9 GHz; no overflow care needed. *)

val cycles_per_second : cycles
(** Reference clock rate: 1.9e9 cycles per second. *)

val of_seconds : float -> cycles
(** [of_seconds s] is the duration of [s] seconds in cycles. *)

val of_micros : float -> cycles
(** [of_micros us] is the duration of [us] microseconds in cycles. *)

val to_seconds : cycles -> float
(** [to_seconds c] converts a cycle count back to seconds. *)

val to_millis : cycles -> float
(** [to_millis c] converts a cycle count to milliseconds. *)
