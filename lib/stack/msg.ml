type socket_id = int

type sock_call =
  | Call_socket
  | Call_bind of { port : int }
  | Call_listen of { backlog : int }
  | Call_connect of { dst : Newt_net.Addr.Ipv4.t; dst_port : int }
  | Call_send of { data : Bytes.t }
  | Call_recv of { max : int; timeout : int }
  | Call_accept of { new_sock : socket_id }
  | Call_sendto of { data : Bytes.t; dst : Newt_net.Addr.Ipv4.t; dst_port : int }
  | Call_recvfrom of { max : int; timeout : int }
  | Call_shutdown
  | Call_select of { watch : socket_id list; timeout : int }
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
  | Ok_ready of socket_id list
  | Ok_accepted of socket_id
  | Err of string

type t =
  | Tx_ip of {
      id : int;
      chain : Newt_channels.Rich_ptr.chain;
      src : Newt_net.Addr.Ipv4.t;
      dst : Newt_net.Addr.Ipv4.t;
      proto : Newt_net.Ipv4.protocol;
      tso : bool;
    }
  | Tx_ip_confirm of { id : int; ok : bool }
  | Filter_req of { id : int; dir : [ `In | `Out ]; pkt : Bytes.t }
  | Filter_verdict of { id : int; pass : bool }
  | Drv_tx of {
      id : int;
      chain : Newt_channels.Rich_ptr.chain;
      csum_offload : bool;
      tso : bool;
      tso_mss : int;
      queue : int;
    }
  | Drv_tx_confirm of { ids : int list; ok : bool }
  | Rx_frame of { buf : Newt_channels.Rich_ptr.t; len : int }
  | Rx_deliver of {
      buf : Newt_channels.Rich_ptr.t;
      src : Newt_net.Addr.Ipv4.t;
      dst : Newt_net.Addr.Ipv4.t;
    }
  | Rx_done of { buf : Newt_channels.Rich_ptr.t }
  | Sock_req of { id : int; sock : socket_id; call : sock_call }
  | Sock_reply of { id : int; result : sock_result }
  | Sock_event of { sock : socket_id; event : [ `Readable | `Writable | `Closed ] }

let ptrs = function
  | Tx_ip { chain; _ } | Drv_tx { chain; _ } -> chain
  | Rx_frame { buf; _ } | Rx_deliver { buf; _ } | Rx_done { buf } -> [ buf ]
  | Tx_ip_confirm _ | Filter_req _ | Filter_verdict _ | Drv_tx_confirm _
  | Sock_req _ | Sock_reply _ | Sock_event _ ->
      []

let protocol = function
  | Tx_ip { id; _ } | Filter_req { id; _ } | Drv_tx { id; _ } -> `Req id
  | Tx_ip_confirm { id; _ } | Filter_verdict { id; _ } -> `Conf [ id ]
  | Drv_tx_confirm { ids; _ } -> `Conf ids
  (* Sock_req/Sock_reply ids come from the SYSCALL server's own
     counter, not the request database (a different namespace that
     would alias), and a blocking call may stay pending indefinitely
     by design — the request/confirm contract does not govern them. *)
  | Rx_frame _ | Rx_deliver _ | Rx_done _
  | Sock_req _ | Sock_reply _ | Sock_event _ ->
      `Other

