(** The transport core: what the TCP, UDP and single servers share.

    A transport server answers the SYSCALL server's socket calls (its
    {e socket front}) and, in the split stack, hands its packets to the
    IP server and takes received ones back (its {e IP half}). Only the
    protocol in between differs: {!Tcp_srv} and {!Udp_srv} keep that,
    and {!Single_srv} runs {!Tcp_srv}'s socket calls over its own
    in-process IP path. *)

(** {1 Socket front} *)

(** A socket's one blocked operation, the request it answers and the
    cancel of its timeout. *)
type 'op blocked = private {
  mutable op : 'op option;
  mutable req : int;
  mutable cancel : unit -> unit;
}

val blocked : unit -> 'op blocked

type 's front
(** The socket table, the replies to SYSCALL and the server's one
    outstanding [select]. *)

val front : Proc.t -> size:int -> readable:('s -> bool) -> 's front
(** [size]: the table's initial size. [readable]: the protocol's test
    for [select]. *)

val sockets : 's front -> (Msg.socket_id, 's) Hashtbl.t
val reply_to : 's front -> Msg.t Newt_channels.Sim_chan.t -> unit
val reply : 's front -> int -> Msg.sock_result -> unit

val block :
  's front ->
  'op blocked ->
  int ->
  'op ->
  timeout:Newt_sim.Time.cycles ->
  expired:Msg.sock_result ->
  (unit -> unit) ->
  unit
(** [block f b req op ~timeout ~expired progress] blocks [op], unless
    an operation is blocked already (an error to [req]), and runs
    [progress], which may {!finish} it. One still blocked [timeout]
    later ([0]: never) is answered [expired]. *)

val finish : 's front -> 'op blocked -> Msg.sock_result -> unit
(** Answer the blocked operation and cancel its timeout, so the timer
    neither stays queued nor charges the core when it would fire. *)

val select :
  's front -> int -> Msg.socket_id list -> timeout:Newt_sim.Time.cycles -> unit
(** [Call_select]: answered with the readable watched sockets once
    there are some, with none after [timeout]. A socket gone from the
    table reads as ready. *)

val check_select : 's front -> unit
(** Answer the pending [select] if a watched socket became readable. *)

val reset : 's front -> unit
(** Crash: the table and the pending [select] go with the incarnation;
    its timers are guarded ({!Proc.after}). *)

(** {1 IP half} *)

type ip
(** The buffer pool, the requests toward IP, and the packets held
    while IP is down. *)

val chunk_size : int
(** Bytes per pool chunk: a packet takes a header chunk and one chunk
    per [chunk_size] bytes of payload. *)

val ip :
  Component.t ->
  registry:Newt_channels.Registry.t ->
  proto:Newt_net.Ipv4.protocol ->
  slots:int ->
  restart_cost:Newt_sim.Time.cycles ->
  ip
(** Creates the pool, then the request database. [restart_cost] is
    charged for the resubmission after an IP restart. *)

val transmit :
  ip ->
  src:Newt_net.Addr.Ipv4.t ->
  dst:Newt_net.Addr.Ipv4.t ->
  tso:bool ->
  Bytes.t ->
  Bytes.t ->
  off:int ->
  bool
(** [transmit ip ~src ~dst ~tso hdr payload ~off]: [hdr] and [payload]
    from [off], copied into the pool, go to IP as a [Tx_ip] request
    until IP confirms them; while IP is down they are held, and on a
    full queue dropped. [false] when the pool ran out. *)

val read : ip -> Newt_channels.Rich_ptr.t -> Bytes.t option
(** A received buffer's bytes, unless it is stale. *)

val handler :
  ip ->
  call:(int -> Msg.socket_id -> Msg.sock_call -> Newt_sim.Time.cycles * (unit -> unit)) ->
  rx:
    (Newt_channels.Rich_ptr.t ->
    src:Newt_net.Addr.Ipv4.t ->
    dst:Newt_net.Addr.Ipv4.t ->
    Newt_sim.Time.cycles * (unit -> unit)) ->
  Proc.handler
(** [Sock_req] goes to [call]; [Rx_deliver] to [rx], then its buffer
    back to IP ([Rx_done]); [Tx_ip_confirm] frees the chain. *)

val connect_ip :
  ip ->
  to_ip:Msg.t Newt_channels.Sim_chan.t ->
  from_ip:Msg.t Newt_channels.Sim_chan.t ->
  Proc.handler ->
  unit

val connect_sc :
  ip ->
  's front ->
  from_sc:Msg.t Newt_channels.Sim_chan.t ->
  to_sc:Msg.t Newt_channels.Sim_chan.t ->
  Proc.handler ->
  unit

val on_ip_crash : ip -> unit
(** Abort the unconfirmed requests: their packets are held. *)

val on_ip_restart : ip -> unit
(** Resubmit the held packets still live, under new ids (Section V-D). *)
