(** The TCP server.

    Runs the {!Newt_net.Tcp} engine as an isolated, single-threaded
    component. Outgoing segments become zero-copy requests to the IP
    server — a header chunk plus payload chunks in this server's pool,
    tracked in the request database until IP confirms transmission
    (only then may the chunks be freed, Section V-C). Incoming segments
    arrive as rich pointers into IP's receive pool and are returned
    with [Rx_done].

    Recovery (Table I): TCP has "large, frequently changing state for
    each connection, difficult to recover" — so a crash loses all
    established connections. Listening sockets have no volatile state
    and {e are} recovered: their ports are kept in the storage server
    and re-opened on restart, which is what lets new SSH sessions
    connect immediately after a crash (Section VI-B). On an IP crash,
    all unconfirmed packets are resubmitted under fresh request ids;
    replies to the old ids are ignored (Section V-D).

    The listener reload and the engine swap are {!Component} lifecycle
    hooks; the crash hook also banks the dying engine's counters into
    the component archive so {!total_segs_out}/{!total_bytes_out} stay
    exact across restarts. The socket front and the IP half are
    {!Transport}'s. *)

type t

val create :
  Component.t ->
  registry:Newt_channels.Registry.t ->
  local_addr:Newt_net.Addr.Ipv4.t ->
  ?tcp_config:Newt_net.Tcp.config ->
  save:(string -> string -> unit) ->
  load:(string -> string option) ->
  unit ->
  t

val comp : t -> Component.t

val set_src_select : t -> (Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Ipv4.t) -> unit
(** Source-address selection for active opens on a multihomed host
    (default: the constant [local_addr]). *)

val set_port_select :
  t ->
  (src:Newt_net.Addr.Ipv4.t ->
  dst:Newt_net.Addr.Ipv4.t ->
  dst_port:int ->
  [ `Any | `Port of int | `Exhausted ]) ->
  unit
(** Source-port selection for active opens. [`Any] falls back to the
    engine's ephemeral allocator; [`Port p] binds [p]. A sharded stack
    installs a function that picks a port whose RSS hash maps back to
    this very shard, so the connection's return traffic arrives on its
    own queue — and answers [`Exhausted] when every such port is in
    use, which the server surfaces to the caller as a connect error
    rather than silently opening on a port steered to another shard. *)

val set_break_tcp : t -> Newt_net.Tcp.sabotage option -> unit
(** Arm (or clear) a conformance-sabotage mode across this server's
    incarnations: [Ack_from_closed] plants the engine-level bug now
    and after every restart; [Stale_established] captures the live
    4-tuples at the moment of crash and resurrects them as forged
    Established PCBs when the server comes back. Negative control for
    [Newt_verify.Tcpfsm] — must never survive an armed checker. *)

val connect_ip :
  t ->
  to_ip:Msg.t Newt_channels.Sim_chan.t ->
  from_ip:Msg.t Newt_channels.Sim_chan.t ->
  unit

val connect_sc :
  t ->
  from_sc:Msg.t Newt_channels.Sim_chan.t ->
  to_sc:Msg.t Newt_channels.Sim_chan.t ->
  unit

val engine : t -> Newt_net.Tcp.t
(** The live protocol engine (replaced on restart). *)

val conntrack_flows : t -> Newt_pf.Conntrack.flow list
(** Live connections, for the packet filter's state recovery. *)

val on_ip_crash : t -> unit
val on_ip_restart : t -> unit

val repersist : t -> unit
(** Save the listening sockets again (after a storage-server crash). *)

val total_segs_out : t -> int
val total_bytes_out : t -> int
(** Lifetime totals: the live engine's counters plus those banked from
    incarnations that died — what per-shard stats should report. *)

val socket_count : t -> int
(** Sockets in this server's table: listeners and sockets not yet
    closed. A [Call_close] removes its socket. *)

val listen_overflows : t -> int
(** Connections refused (RST) because their listener's accept queue
    was at its backlog cap when the handshake completed. *)

(** {1 Socket calls on their own}

    The server's socket calls over an engine, without its IP half: what
    {!Single_srv} runs over its in-process IP path. *)

type sockets

val sockets :
  Proc.t ->
  Newt_net.Tcp.t ->
  src_select:(Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Ipv4.t) ->
  save:(string -> string -> unit) ->
  sockets
(** [save] stores the listening sockets. *)

val reply_to : sockets -> Msg.t Newt_channels.Sim_chan.t -> unit
val sock_call : sockets -> int -> Msg.socket_id -> Msg.sock_call -> unit
