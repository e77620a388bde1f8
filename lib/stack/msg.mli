(** The request vocabulary of the multiserver networking stack.

    Every fast-path channel between two servers carries values of
    {!t}: marshalled requests "not unlike a remote procedure call"
    (Section IV). Identifiers come from each sender's request database;
    replies quote them. Bulk data never rides in a message — only
    rich-pointer chains into shared pools. *)

type socket_id = int

(** System calls the SYSCALL server forwards to transport servers. *)
type sock_call =
  | Call_socket  (** Create a socket. *)
  | Call_bind of { port : int }
  | Call_listen of { backlog : int }
      (** [backlog] caps the listener's accept queue: a connection
          completing the handshake while the queue is full is refused
          (RST) and counted, never queued without bound. *)
  | Call_connect of { dst : Newt_net.Addr.Ipv4.t; dst_port : int }
  | Call_send of { data : Bytes.t }
      (** Data the application placed in the socket's shared buffer;
          carried here as bytes for simulation simplicity, costed as a
          zero-copy handoff. *)
  | Call_recv of { max : int; timeout : int }
      (** [timeout] in cycles; 0 means block forever (SO_RCVTIMEO). *)
  | Call_accept of { new_sock : socket_id }
      (** The SYSCALL server pre-allocates the accepted connection's
          socket id. *)
  | Call_sendto of { data : Bytes.t; dst : Newt_net.Addr.Ipv4.t; dst_port : int }
      (** Unconnected datagram send. *)
  | Call_recvfrom of { max : int; timeout : int }
      (** Datagram receive reporting the source address. *)
  | Call_shutdown
      (** Half-close: send FIN after the queued data drains, keep
          receiving (POSIX shutdown(SHUT_WR)). *)
  | Call_select of { watch : socket_id list; timeout : int }
      (** Wait until any watched socket of this transport is readable.
          The paper's NewtOS still ran select through the unconverted
          synchronous code ("has not been modified yet to use the
          asynchronous channels we propose", Section VI-B) — this is
          the asynchronous version its future work calls for. *)
  | Call_close

type sock_result =
  | Ok_socket of socket_id
  | Ok_unit
  | Ok_sent of int
  | Ok_data of Bytes.t
  | Ok_data_from of {
      data : Bytes.t;
      src : Newt_net.Addr.Ipv4.t;
      src_port : int;
    }
  | Ok_eof
  | Ok_ready of socket_id list  (** Readable sockets, for select. *)
  | Ok_accepted of socket_id
  | Err of string

(** One message on a fast-path channel. *)
type t =
  (* Transport -> IP (downward data path). *)
  | Tx_ip of {
      id : int;  (** Sender's request-database id. *)
      chain : Newt_channels.Rich_ptr.chain;
          (** L4 header chunk + payload chunks; no IP header yet. *)
      src : Newt_net.Addr.Ipv4.t;
      dst : Newt_net.Addr.Ipv4.t;
      proto : Newt_net.Ipv4.protocol;
      tso : bool;  (** Oversized segment: ask the NIC to split. *)
    }
  (* IP -> transport: the packet left the machine (or was dropped). *)
  | Tx_ip_confirm of { id : int; ok : bool }
  (* IP -> PF and back. *)
  | Filter_req of {
      id : int;
      dir : [ `In | `Out ];
      pkt : Bytes.t;  (** The IP packet header + enough L4 bytes. *)
    }
  | Filter_verdict of { id : int; pass : bool }
  (* IP -> driver and back. *)
  | Drv_tx of {
      id : int;
      chain : Newt_channels.Rich_ptr.chain;  (** Full Ethernet frame. *)
      csum_offload : bool;
      tso : bool;
      tso_mss : int;
      queue : int;
          (** TX queue hint for multi-queue devices (shard affinity);
              single-queue drivers ignore it. *)
    }
  | Drv_tx_confirm of { ids : int list; ok : bool }
      (** One or more TX completions. {!Drv_srv} confirms each
          descriptor alone; {!Mq_drv_srv} coalesces up to
          {!Newt_hw.Costs.t.confirm_batch} ids into one message,
          amortizing the per-message channel cost. *)
  (* Driver -> IP: a received frame, in the IP server's receive pool. *)
  | Rx_frame of { buf : Newt_channels.Rich_ptr.t; len : int }
  (* IP -> transport: a received L4 payload (still in the rx pool). *)
  | Rx_deliver of {
      buf : Newt_channels.Rich_ptr.t;  (** The L4 bytes. *)
      src : Newt_net.Addr.Ipv4.t;
      dst : Newt_net.Addr.Ipv4.t;
    }
  (* Transport -> IP: done with an rx buffer, free it. *)
  | Rx_done of { buf : Newt_channels.Rich_ptr.t }
  (* SYSCALL server <-> transport servers. *)
  | Sock_req of { id : int; sock : socket_id; call : sock_call }
  | Sock_reply of { id : int; result : sock_result }
  (* Transport -> SYSCALL: unsolicited events (accepted conn, data). *)
  | Sock_event of { sock : socket_id; event : [ `Readable | `Writable | `Closed ] }

val protocol : t -> [ `Req of int | `Conf of int list | `Other ]
(** Classify a message for the dynamic protocol checker: [`Req id] if
    it carries a request-database id that expects a confirm, [`Conf
    ids] if it confirms request(s) (batched confirms quote several),
    [`Other] for traffic the request/confirm contract does not govern
    — one-way messages (received frames, buffer returns, unsolicited
    events) and the SYSCALL call/reply pair, whose ids come from the
    SYSCALL server's own counter (a separate namespace) and whose
    blocking calls may stay open indefinitely by design. *)

val ptrs : t -> Newt_channels.Rich_ptr.t list
(** Every rich pointer the message hands across the channel (chain
    chunks and single buffers) — what the ownership sanitizer tracks as
    in-flight while the message is queued. *)
