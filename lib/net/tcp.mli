(** A TCP engine: connection table, listeners, the RFC 793 state machine,
    Jacobson/Karn retransmission timing, slow start, congestion
    avoidance, fast retransmit, delayed ACKs, Nagle's algorithm, MSS and
    window-scale negotiation, and optional TSO-sized output segments.

    The engine is host-stack agnostic: it is driven through an {!env}
    record providing a clock, one-shot timers and a segment-emission
    callback, so the same code runs inside the simulated multiserver
    stack (where the TCP server charges cycle costs around it), in the
    single-server and monolithic stack models, and directly in unit
    tests wired back-to-back.

    Crash-recovery behaviour follows the paper (Table I): listening
    sockets are trivially serializable ({!listening_ports}) and are the
    only thing a restarted TCP server restores; established connections
    are lost (their peers receive RSTs when they next transmit).
    {!established_tuples} exports the live 4-tuples so a restarted
    packet filter can rebuild its connection tracking by querying TCP
    (Section V-D). *)

type t
(** A TCP instance (one per host stack). *)

type pcb
(** A protocol control block: one connection. *)

type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

val pp_state : Format.formatter -> state -> unit

val state_code : state -> int
(** Stable integer code (0–10, declaration order) used when a state
    crosses the [Newt_channels.Hook] TCP event boundary — that library
    sits below this one and cannot name {!state}. *)

val state_of_code : int -> state
(** Inverse of {!state_code}; raises [Invalid_argument] on out-of-range
    codes. *)

type event =
  | Connected  (** Three-way handshake completed (active open). *)
  | Accepted  (** Handshake completed on a listener (passive open). *)
  | Readable  (** New data (or EOF) available to {!recv}. *)
  | Writable  (** Send-buffer space freed. *)
  | Closed_normally  (** Both directions closed cleanly. *)
  | Reset  (** Connection aborted (RST received or too many RTOs). *)

type env = {
  now : unit -> int;  (** Current time, cycles. *)
  set_timer : int -> (unit -> unit) -> unit -> unit;
      (** [set_timer delay f] arms a one-shot timer and returns its
          cancel function. *)
  emit : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Tcp_wire.header -> payload:Bytes.t -> unit;
      (** Hand a segment to the IP layer. *)
  random : int -> int;  (** Uniform draw in [0, bound); for ISS. *)
}

type config = {
  mss : int;  (** Our advertised MSS (1460 for Ethernet). *)
  tso_segment : int;
      (** Largest segment handed to [emit] when TSO is enabled (e.g.
          65535); 0 disables TSO and caps segments at the MSS. *)
  snd_buf : int;  (** Send buffer bytes per connection. *)
  rcv_buf : int;  (** Receive buffer bytes per connection. *)
  rto_init : int;  (** Initial retransmission timeout, cycles. *)
  rto_min : int;
  rto_max : int;
  delack_timeout : int;  (** Delayed-ACK flush timeout, cycles. *)
  msl : int;  (** Maximum segment lifetime (TIME_WAIT = 2×MSL). *)
  max_retries : int;  (** RTO backoffs before giving up (Reset). *)
  use_wscale : bool;  (** Negotiate the window-scale option. *)
}

val default_config : config
(** 1460-byte MSS, no TSO, 256 KiB buffers, 200 ms min RTO, windows
    scaled, times expressed at the simulator's 1.9 GHz clock. *)

val create : ?config:config -> env -> t

(** {1 Opening and closing} *)

val listen : t -> port:int -> on_accept:(pcb -> unit) -> unit
(** Open a listening socket. Raises [Invalid_argument] if the port is
    already bound. *)

val unlisten : t -> port:int -> unit

val connect :
  t ->
  src:Addr.Ipv4.t ->
  dst:Addr.Ipv4.t ->
  dst_port:int ->
  ?src_port:int ->
  unit ->
  pcb
(** Active open; an ephemeral source port is chosen when none is
    given. *)

val port_in_use :
  t ->
  local_ip:Addr.Ipv4.t ->
  port:int ->
  remote_ip:Addr.Ipv4.t ->
  remote_port:int ->
  bool
(** Whether the four-tuple already names a connection — the membership
    probe external port selectors (the sharded stack's
    {!Newt_scale.Shard_map.port_for_shard}) use to avoid handing out a
    port that is still bound. *)

val close : pcb -> unit
(** Orderly close: sends FIN once queued data drains. *)

val abort : pcb -> unit
(** Send RST and discard the connection. *)

(** {1 Data transfer} *)

val send : pcb -> Bytes.t -> off:int -> len:int -> int
(** Queue up to [len] bytes of [data] starting at [off] (the window
    {!Bytebuf.push} takes); returns how many fit in the send buffer.
    The bytes are copied in, so the caller may reuse or share [data].
    Nagle's algorithm (RFC 896) holds a sub-MSS tail of the buffer
    while data is in flight; the tail goes out once nothing is in
    flight, when {!close} is pending, or when the send buffer is full. *)

val recv : pcb -> max:int -> Bytes.t
(** Drain up to [max] bytes of in-order received data. *)

val recv_eof : pcb -> bool
(** The peer closed its direction and all its data has been drained. *)

val send_space : pcb -> int
val recv_available : pcb -> int

(** {1 Input from the network} *)

val input :
  t ->
  src:Addr.Ipv4.t ->
  dst:Addr.Ipv4.t ->
  Tcp_wire.header ->
  payload:Bytes.t ->
  off:int ->
  len:int ->
  unit
(** Deliver a received segment (already checksum-validated by the
    caller) whose payload is the [len] bytes of [payload] at [off] —
    typically a window into the received frame. The engine keeps no
    reference to the window after returning: in-order bytes are copied
    into the receive buffer and an out-of-order segment is stashed as
    its own copy. Segments that match no connection are answered with
    RST, per RFC 793.
    @raise Invalid_argument if [off] and [len] do not name a region of
    [payload]. *)

val input_segment :
  t -> src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Bytes.t -> off:int -> len:int -> bool
(** Decode the [len]-byte segment at [off] in place
    ({!Tcp_wire.decode_at}) and deliver it with {!input}, its payload a
    window into the same buffer. [false] (and nothing delivered) when
    the checksum or header is bad. *)

(** {1 Inspection} *)

val state : pcb -> state
val set_handler : pcb -> (event -> unit) -> unit

val flight_size : pcb -> int
(** Bytes (and FIN) sent but not yet cumulatively acknowledged. *)

val snd_window : pcb -> int
(** The peer's advertised (scaled) window. *)

val rtx_armed : pcb -> bool
(** Whether the retransmission timer is running. *)

val ooo_count : pcb -> int
(** Out-of-order segments buffered on the receive side. *)

val snd_unacked : pcb -> int
(** Oldest unacknowledged sequence number. *)

val snd_next : pcb -> int
(** Next sequence number to send. *)

val rcv_next : pcb -> int
(** Next expected receive sequence number. *)

val local_addr : pcb -> Addr.Ipv4.t * int
val remote_addr : pcb -> Addr.Ipv4.t * int
val effective_mss : pcb -> int
val cwnd : pcb -> int
val srtt : pcb -> int option
(** Smoothed RTT estimate in cycles, once at least one sample exists. *)

type stats = {
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable retransmits : int;
  mutable dup_segs_in : int;  (** Received segments fully below rcv_nxt. *)
  mutable rsts_out : int;
  mutable rsts_in : int;
}

val stats : t -> stats

val listening_ports : t -> int list
(** The serializable listener state (for the storage server). *)

val established_tuples : t -> (Addr.Ipv4.t * int * Addr.Ipv4.t * int) list
(** Live connections, for packet-filter conntrack recovery. *)

val connection_count : t -> int

val shutdown_all : t -> unit
(** Drop every connection and listener without emitting anything — the
    moment of a TCP server crash. Each dropped PCB reports a
    crash-caused transition to Closed through the hook family, so the
    conformance checker's shadow table follows Table I semantics. *)

(** {1 Conformance sabotage}

    Negative controls for [Newt_verify.Tcpfsm]: each mode plants the
    paper's §V-B bug class — answering traffic from the wrong protocol
    state — and must fail through the checker, never silently pass. *)

type sabotage =
  | Stale_established
      (** After a crash, {!resurrect} forges Established PCBs with no
          handshake behind them, so peers of the dead incarnation see
          a stale Established transition instead of RST-from-Closed. *)
  | Ack_from_closed
      (** Segments for a closed port are answered with a bare ACK
          instead of the RST that RFC 793 and Table I demand. *)

val set_sabotage : t -> sabotage option -> unit
(** Arm or clear a sabotage mode on this engine. *)

val resurrect : t -> (Addr.Ipv4.t * int * Addr.Ipv4.t * int) list -> unit
(** Forge an Established PCB for each 4-tuple not already present —
    the [Stale_established] payload, fed with the tuples captured
    before the crash. Each forged PCB reports a Closed→Established
    transition the checker's transition relation must reject. *)
