(** A declared run, lowered into a world by one builder for either
    stack.

    Building a world allocates process, pool and channel ids from
    process-global counters, and counterexample traces print them: a
    caller that builds several worlds keeps them in one fixed order,
    probe builds included. *)

type _ stack =
  | Split : Host.config -> Host.t stack
  | Sharded : Newt_scale.Sharded_stack.config -> Newt_scale.Sharded_stack.t stack

(** One iperf flow into the TCP sink of the peer on [link] (the sharded
    stack has one link), stopping at [until]. *)
type flow = {
  link : int;
  port : int;
  until : Newt_sim.Time.cycles;
  pace : Newt_sim.Time.cycles option;  (** Think time between writes. *)
}

val flow : ?link:int -> ?pace:Newt_sim.Time.cycles -> port:int -> Newt_sim.Time.cycles -> flow

type plane = [ `Tcp | `Udp | `Ip | `Pf | `Drv ]

(** A deliberate break in every restart of a recovery procedure: a
    metadata lie only the continuous checker can see. [Wrong_core]
    brings the victim up on another component's core; [Skip_republish]
    loses the directory republish of its first export. *)
type sabotage = Wrong_core | Skip_republish

type 'w t = {
  stack : 'w stack;
  title : string;
      (** Starts the re-check titles, which end up in violation text:
          ["<title>: after <component> restart"], plus the incarnation
          on the split host. *)
  flows : flow list;
  kills : (Newt_sim.Time.cycles * string) list;  (** Component names. *)
  horizon : Newt_sim.Time.cycles;  (** Where {!run} stops. *)
  break_recovery : (plane * sabotage) option;  (** On the plane's first member. *)
}

val v :
  ?title:string ->
  ?flows:flow list ->
  ?kills:(Newt_sim.Time.cycles * string) list ->
  ?horizon:Newt_sim.Time.cycles ->
  ?break_recovery:plane * sabotage ->
  'w stack ->
  'w t

type 'w world

val build : ?verify:Newt_verify.Continuous.t -> 'w t -> 'w world
(** Build the stack; with [verify], {!check} it again after every
    reincarnation; install [break_recovery]. *)

val start : 'w world -> unit
(** Register the flows' sinks, start their senders (one app each, in
    order), then schedule the kills. *)

val lower : ?verify:Newt_verify.Continuous.t -> 'w t -> 'w world
(** {!build}, then {!start}. *)

val net : 'w world -> 'w
val rs : 'w world -> Newt_reliability.Reincarnation.t
val components : 'w world -> Newt_stack.Component.t list
val members : 'w world -> plane -> string array

val component : 'w world -> string -> Newt_stack.Component.t
(** By name; raises [Invalid_argument] when there is none. *)

val received : 'w world -> int -> int
(** Bytes flow [i]'s sink took in. *)

val bitrate : 'w world -> Newt_sim.Series.t
(** All flows' bytes, in 100 ms bins. *)

val iperf : 'w world -> int -> Newt_sockets.Apps.Iperf.t

val check : 'w world -> title:string -> Newt_verify.Report.t
(** The static checker over the live stack, with its sharding affinity
    when sharded. *)

val run : 'w world -> unit
(** To the horizon. *)

val close :
  ?verify:Newt_verify.Continuous.t -> 'w world -> until:Newt_sim.Time.cycles -> check_leaks:bool -> unit
(** With [verify], run on to [until] so the tail quiesces, then
    {!Newt_verify.Continuous.end_run}. *)
