(** The application programs of the evaluation.

    - {!Iperf}: the bulk TCP sender behind Table II's peak rates and
      the Figures 4/5 bitrate traces;
    - {!Echo_listener}: the OpenSSH-stand-in server on the NewtOS host
      ("We used OpenSSH as our test server", Section VI-B) — inbound
      reachability probes connect to it;
    - {!Ssh_session}: a long-lived interactive TCP session from the
      NewtOS host, exchanging small messages — detects broken
      connections across crashes;
    - {!Dns_client}: the periodic UDP resolver — detects whether
      crashes are transparent to UDP without reopening the socket. *)

module Iperf : sig
  type t

  val start :
    Newt_hw.Machine.t ->
    sc:Newt_stack.Syscall_srv.t ->
    app:Newt_stack.Syscall_srv.app ->
    dst:Newt_net.Addr.Ipv4.t ->
    port:int ->
    ?write_size:int ->
    ?pace:Newt_sim.Time.cycles ->
    until:Newt_sim.Time.cycles ->
    unit ->
    t
  (** Connect and stream patterned writes until the given simulated
      time, then close. Write errors trigger a reconnect (like iperf
      restarted by a test harness). [?pace] inserts a think time
      between writes (0 = saturate). *)

  val bytes_sent : t -> int
  val connects : t -> int
  val errors : t -> int
end

module Echo_listener : sig
  val start :
    Newt_stack.Syscall_srv.t -> app:Newt_stack.Syscall_srv.app -> port:int -> unit
  (** Accept loop; echoes every connection's bytes back. *)
end

module Ssh_session : sig
  type t

  val start :
    Newt_hw.Machine.t ->
    sc:Newt_stack.Syscall_srv.t ->
    app:Newt_stack.Syscall_srv.app ->
    dst:Newt_net.Addr.Ipv4.t ->
    port:int ->
    unit ->
    t

  val exchanges_ok : t -> int
  val broken : t -> bool
  (** The session observed a reset/error and is dead. *)
end

module Rpc_churn : sig
  type t

  val start :
    Newt_hw.Machine.t ->
    sc:Newt_stack.Syscall_srv.t ->
    app:Newt_stack.Syscall_srv.app ->
    dst:Newt_net.Addr.Ipv4.t ->
    port:int ->
    pace:Newt_sim.Time.cycles ->
    ?payload:int ->
    until:Newt_sim.Time.cycles ->
    unit ->
    t
  (** An open-loop short-RPC worker: every [pace] cycles it starts a
      fresh connect → send [payload] bytes → receive the echo → close
      cycle against [dst:port], regardless of how earlier RPCs are
      faring — so stack-side queueing shows up as tail latency, not as
      a reduced offered rate. Starts are shed (and counted) only past
      256 concurrent RPCs. Raises
      [Invalid_argument] unless [pace > 0]. *)

  val started : t -> int
  val completed : t -> int
  val errors : t -> int

  val shed : t -> int
  (** RPCs not started because 256 were already in flight — nonzero means the measured percentiles undercount the
      would-be tail. *)

  val outstanding : t -> int

  val connect_hist : t -> Newt_sim.Stats.Hist.t
  (** Connect-call → established latency, recorded in microseconds. *)

  val request_hist : t -> Newt_sim.Stats.Hist.t
  (** Connect-call → full echo received latency, in microseconds. *)
end

module Dns_client : sig
  type t

  val start :
    Newt_hw.Machine.t ->
    sc:Newt_stack.Syscall_srv.t ->
    app:Newt_stack.Syscall_srv.app ->
    dst:Newt_net.Addr.Ipv4.t ->
    ?timeout:Newt_sim.Time.cycles ->
    unit ->
    t

  val queries : t -> int
  val answered : t -> int
  val max_consecutive_failures : t -> int
  val socket_reopens : t -> int
  (** Stays 0 when UDP crashes are transparent (Section V-D). *)
end
