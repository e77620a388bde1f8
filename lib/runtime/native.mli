(** The native runtime: the split stack on real OCaml 5 domains.

    Runs the same server modules the simulator runs — SYSCALL, TCP,
    UDP, IP, PF and a driver — as event loops pinned to domains,
    communicating over real {!Newt_channels.Spsc_queue} rings, with
    the spin-then-park doorbell of {!Loop} standing in for the paper's
    MONITOR/MWAIT. The servers are byte-identical to the simulated
    ones: only the {!Newt_sim.Exec} backend changes. *)

type overhead =
  | No_overhead
  | Kipc_trap  (** A kernel-lock round trip per channel send. *)
  | Copy_per_hop  (** Two MSS-sized copies per channel send. *)

(** Deliberate concurrency bugs for the race-detector negative
    controls — the [--break-recovery] pattern applied to memory
    ordering. Each mode must make the run exit through the detector. *)
type break_race =
  | Spsc_two_producers
      (** A second domain pushes onto the peer's wire ring. *)
  | Loop_unfenced_counter
      (** Two loops and the main thread share a plain [int ref]. *)

val break_race_of_string : string -> break_race option
val break_race_to_string : break_race -> string
val break_race_modes : string list

type config = {
  domains : int;
  seconds : float;
  seed : int;
  chan_capacity : int;
  write_size : int;
  spin_budget : int;
  never_park : bool;
  confirm_batch : int;  (** Driver TX confirms coalesced per message. *)
  overhead : overhead;  (** Channel-cost ablation (cross-validation). *)
  ping_period : float;  (** Seconds between ICMP echo probes. *)
  port : int;
  race : bool;
      (** Arm {!Newt_verify.Race.Dynamic} around the run. It checks the
          locations the hook's sampling period keeps
          ({!Newt_channels.Hook.set_sample}). *)
  break_race : break_race option;
  tcp_fsm : bool;
      (** Arm {!Newt_verify.Tcpfsm} as a TCP-hook listener for
          the run; the peer then also probes a closed port so the
          RST-from-Closed contract is exercised, not just vacuously
          satisfied. *)
  break_tcp : Newt_net.Tcp.sabotage option;
      (** Plant a deliberate TCP conformance bug (implies the checker):
          [Ack_from_closed] arms the engine-level sabotage on the DUT;
          [Stale_established] crash-and-resurrects the TCP engine's
          connections mid-run on its own domain. Each must make the run
          fail through the checker. *)
}

val default_config : config

val validate :
  recommended:int ->
  ?allow_oversubscribe:bool ->
  domains:int ->
  unit ->
  (unit, string) Stdlib.result
(** Refuse configurations that would silently measure the wrong thing:
    fewer than 2 domains, or more domains than
    [Domain.recommended_domain_count] (pass [allow_oversubscribe] to
    force time-slicing, e.g. for smoke tests on small machines). This
    is the no-silent-fallback guard: the caller must error out, never
    quietly run the simulator instead. *)

val ownership_plan :
  ?break_race:break_race -> domains:int -> unit -> Newt_verify.Race.Plan.t
(** The static model of [run]'s wiring: every ring, inbox, timer
    wheel, pool, table and counter the native run creates, with its
    writers/readers and the primitive its cross-domain edges ride,
    under the same round-robin placement [run] uses. Feed it to
    {!Newt_verify.Race.check_plan}; [break_race] lowers the matching
    sabotage into the plan so the lint flags it statically too. *)

type ring_stat = {
  ring : string;
  sent : int;
  dropped : int;
  max_occupancy : int;
  ring_capacity : int;
}

type result = {
  domains_used : int;
  seconds_run : float;
  goodput_mbps : float;  (** Receiver-side TCP payload rate. *)
  tcp_bytes : int;
  iperf_bytes_sent : int;
  frames_to_peer : int;
  frames_from_peer : int;
  rx_no_buffer : int;  (** Inbound frames dropped: RX pool empty. *)
  icmp_echoes : int;
  ping_count : int;
  ping_rtt_us_mean : float;
  ping_rtt_us_p99 : float;
  checksum_failures : int;  (** Peer-observed; must be 0. *)
  rings : ring_stat list;
  loops : Loop.stats list;
  race : Newt_verify.Race.Dynamic.outcome option;
      (** Present when the run was raced ([config.race] or a
          [break_race] mode); the JSON carries it as a ["race"] block
          in the unified verifier shape. *)
  tcpfsm : (bool * string) option;
      (** Present when the conformance checker rode the run
          ([config.tcp_fsm] or a [break_tcp] mode): the ok flag plus
          {!Newt_verify.Tcpfsm.verdict_json}, carried as a ["tcpfsm"]
          block in the JSON. *)
}

val json_of_result : result -> string

val run : config -> result
(** Wire the stack, spawn [config.domains] domains, drive an
    iperf-style bulk TCP flow plus a periodic ICMP echo from the peer
    for [config.seconds] of wall-clock time, then stop the domains and
    gather counters. Raises [Failure] if any domain died. Call
    {!validate} first. *)
