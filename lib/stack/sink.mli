(** An ideal remote host: the far end of each wire.

    Plays the role of the paper's Linux iperf/DNS peers: a full protocol
    endpoint (ARP, ICMP echo, TCP with real checksum validation, UDP
    responders) that costs no simulated CPU — we are measuring the
    NewtOS host, not the peer. Every frame is parsed from real bytes,
    so anything the NewtOS stack or its NIC offload engines get wrong
    (bad checksums, broken TSO splits, duplicated sequence ranges)
    shows up here. *)

type t

type io = {
  io_now : unit -> Newt_sim.Time.cycles;
  io_timer : Newt_sim.Time.cycles -> (unit -> unit) -> unit -> unit;
  io_emit : Bytes.t -> unit;
  io_random : int -> int;
}
(** The sink's contact with the world: clock, cancellable timer, frame
    transmitter, random stream. *)

val create_io :
  io ->
  addr:Newt_net.Addr.Ipv4.t ->
  mac:Newt_net.Addr.Mac.t ->
  unit ->
  t
(** A sink over an arbitrary [io] backend — the native runtime's peer
    host, fed by {!handle_frame}. *)

val handle_frame : t -> Bytes.t -> unit
(** Process one raw Ethernet frame (the RX path of {!create_io};
    {!create} wires this to the link automatically). *)

val create :
  Newt_sim.Engine.t ->
  link:Newt_nic.Link.t ->
  side:Newt_nic.Link.side ->
  addr:Newt_net.Addr.Ipv4.t ->
  mac:Newt_net.Addr.Mac.t ->
  unit ->
  t

val tcp : t -> Newt_net.Tcp.t

val sink_tcp :
  t -> port:int -> on_bytes:(at:Newt_sim.Time.cycles -> int -> unit) -> unit
(** Accept TCP connections on [port] and drain them, reporting every
    chunk of received payload (the receiver-side bitrate probe used for
    Figures 4 and 5). *)

val serve_udp : t -> port:int -> (Bytes.t -> Bytes.t option) -> unit
(** Answer UDP datagrams on [port] with the function's response (the
    DNS-like responder of the fault-injection campaign). *)

val serve_udp_full :
  t ->
  port:int ->
  (src:Newt_net.Addr.Ipv4.t -> src_port:int -> Bytes.t -> Bytes.t option) ->
  unit
(** Like {!serve_udp} but the handler also sees the sender. *)

val send_udp :
  t -> dst:Newt_net.Addr.Ipv4.t -> dst_port:int -> src_port:int -> Bytes.t -> unit
(** Send an unsolicited datagram from the sink. *)

val serve_dns : t -> zone:(string -> Newt_net.Addr.Ipv4.t option) -> unit -> unit
(** A DNS server on port 53: answers A queries from [zone]
    with real RFC 1035 messages (NXDomain when the zone has no entry). *)

val serve_tcp_echo : t -> port:int -> unit
(** Accept TCP connections on [port] and echo everything back — the
    SSH-like interactive server of the campaign. *)

val connect :
  t -> dst:Newt_net.Addr.Ipv4.t -> dst_port:int -> Newt_net.Tcp.pcb
(** Open a TCP connection from the sink towards the NewtOS host (used
    to test inbound reachability after crashes). *)

val send_tcp_syn :
  t ->
  src:Newt_net.Addr.Ipv4.t ->
  src_port:int ->
  dst:Newt_net.Addr.Ipv4.t ->
  dst_port:int ->
  unit
(** Inject a single SYN claiming to come from [src] — the SYN-flood
    primitive. No connection state is kept on this side: when [src] is
    spoofed (unroutable), the victim's SYN-ACK dies in ARP resolution
    and its half-open handshake lingers until the retries exhaust. *)

val ping :
  t ->
  dst:Newt_net.Addr.Ipv4.t ->
  (rtt:Newt_sim.Time.cycles -> unit) ->
  unit
(** Send an ICMP echo request; the callback fires with the round-trip
    time when the reply arrives (used to measure the stack's latency,
    e.g. the MWAIT wake-up ablation). *)

val tcp_bytes_received : t -> int
val checksum_failures : t -> int
(** TCP/UDP/IP checksum validation failures observed — should stay 0
    on a healthy stack. *)
