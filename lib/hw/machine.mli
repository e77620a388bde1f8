(** A simulated multicore machine.

    The paper's testbed is a 12-core 1.9 GHz AMD Opteron 6168; a machine
    groups the engine, the cost model, and the cores, and hands out
    dedicated cores to OS components (NewtOS mode) or a pool of
    timeshared cores (applications, Minix baseline). *)

type t

val create : ?costs:Costs.t -> ?exec:Newt_sim.Exec.t -> Newt_sim.Engine.t -> t
(** A machine with no cores yet; add them with the allocators below.
    [exec] selects the execution backend (default: the discrete-event
    engine). *)

val engine : t -> Newt_sim.Engine.t

val exec : t -> Newt_sim.Exec.t
(** The execution backend every core and server of this machine uses. *)

val costs : t -> Costs.t

val add_dedicated_core : t -> Cpu.t
(** Allocate a fresh dedicated core (for an OS server). *)

val add_timeshared_core : t -> Cpu.t
(** Allocate a fresh timeshared core (for applications). *)

val core_count : t -> int

val ipi : t -> to_core:Cpu.t -> (unit -> unit) -> unit
(** [ipi t ~to_core k] models an interprocessor interrupt: [k] runs on
    [to_core] after the IPI delivery latency plus a small interrupt
    handling cost. Wakes a halted core immediately (the IPI breaks
    MONITOR/MWAIT even without a monitored write; Section V-B). *)
