module Engine = Newt_sim.Engine
module Stats = Newt_sim.Stats
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Rich_ptr = Newt_channels.Rich_ptr
module Registry = Newt_channels.Registry
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4
module Udp = Newt_net.Udp
module Conntrack = Newt_pf.Conntrack

type inflight = { chain : Rich_ptr.chain; src : Addr.Ipv4.t; dst : Addr.Ipv4.t }

type pending_op =
  | P_none
  | P_recv of { req : int; max : int }
  | P_recvfrom of { req : int; max : int }

type socket = {
  sock_id : Msg.socket_id;
  mutable bound_port : int;  (* 0 = unbound *)
  mutable peer : (Addr.Ipv4.t * int) option;
  rxq : (Addr.Ipv4.t * int * Bytes.t) Queue.t;
  mutable op : pending_op;
  mutable op_timer : unit -> unit;  (* cancels [op]'s timeout *)
}

type t = {
  comp : Component.t;
  proc : Proc.t;
  registry : Registry.t;
  local_addr : Addr.Ipv4.t;
  save : string -> string -> unit;
  load : string -> string option;
  pool : Pool.t;
  db : inflight Component.Db.t;
  mutable to_ip : Msg.t Sim_chan.t option;
  mutable to_sc : Msg.t Sim_chan.t option;
  sockets : (Msg.socket_id, socket) Hashtbl.t;
  (* At most one select outstanding per calling process instance. *)
  mutable select_pending : (int * Msg.socket_id list) option;
  mutable select_timer : unit -> unit;  (* cancels its timeout *)
  mutable next_ephemeral : int;
  mutable resubmit : inflight list;
  requeue : inflight Newt_channels.Request_db.abort;
      (* Every datagram's abort action: hold it for resubmission. *)
  mutable ip_up : bool;
  mutable src_select : Addr.Ipv4.t -> Addr.Ipv4.t;
  mutable datagrams_out : int;
}

let ip_peer = 1
let max_rxq = 64

let comp t = t.comp
let costs t = Machine.costs (Component.machine t.comp)
let datagrams_out t = t.datagrams_out

let free_chain t chain =
  List.iter (fun p -> try Pool.free t.pool p with Pool.Stale_pointer _ -> ()) chain

let persist t =
  let socks =
    Hashtbl.fold (fun id s acc -> (id, s.bound_port, s.peer) :: acc) t.sockets []
  in
  t.save "sockets" (Marshal.to_string (List.sort compare socks) [])

let new_socket id ~bound_port ~peer =
  { sock_id = id; bound_port; peer; rxq = Queue.create (); op = P_none; op_timer = ignore }

let sock t id =
  match Hashtbl.find_opt t.sockets id with
  | Some s -> s
  | None ->
      let s = new_socket id ~bound_port:0 ~peer:None in
      Hashtbl.add t.sockets id s;
      persist t;
      s

let find_by_port t port =
  Hashtbl.fold
    (fun _ s acc -> if s.bound_port = port then Some s else acc)
    t.sockets None

let reply t req result =
  match t.to_sc with
  | Some chan -> ignore (Proc.send t.proc chan (Msg.Sock_reply { id = req; result }))
  | None -> ()

(* A blocked receive or select is over: cancel its timeout (see
   [Tcp_srv.finish]) and answer the caller. *)
let finish t s req result =
  s.op <- P_none;
  s.op_timer ();
  s.op_timer <- ignore;
  reply t req result

let finish_select t req result =
  t.select_pending <- None;
  t.select_timer ();
  t.select_timer <- ignore;
  reply t req result

let socket_readable s = not (Queue.is_empty s.rxq)

let check_select t =
  match t.select_pending with
  | None -> ()
  | Some (req, watch) ->
      let ready =
        List.filter
          (fun id ->
            match Hashtbl.find_opt t.sockets id with
            | Some s -> socket_readable s
            | None -> true (* a vanished socket reads as ready-with-error *))
          watch
      in
      if ready <> [] then finish_select t req (Msg.Ok_ready ready)

let progress t s =
  match s.op with
  | P_none -> ()
  | P_recv { req; max } -> (
      match Queue.take_opt s.rxq with
      | Some (_src, _port, data) ->
          let data =
            if Bytes.length data > max then Bytes.sub data 0 max else data
          in
          finish t s req (Msg.Ok_data data)
      | None -> ())
  | P_recvfrom { req; max } -> (
      match Queue.take_opt s.rxq with
      | Some (src, src_port, data) ->
          let data =
            if Bytes.length data > max then Bytes.sub data 0 max else data
          in
          finish t s req (Msg.Ok_data_from { data; src; src_port })
      | None -> ())

let submit_packet t pkt =
  if not t.ip_up then t.resubmit <- pkt :: t.resubmit
  else
    match t.to_ip with
    | None -> free_chain t pkt.chain
    | Some chan ->
        let id =
          Component.Db.submit t.db ~peer:ip_peer ~payload:pkt ~abort:t.requeue
        in
        if
          not
            (Proc.send t.proc chan
               (Msg.Tx_ip
                  { id; chain = pkt.chain; src = pkt.src; dst = pkt.dst; proto = Ipv4.Udp; tso = false }))
        then begin
          ignore (Component.Db.complete t.db id);
          free_chain t pkt.chain
        end

let alloc_ephemeral t =
  let rec go n =
    if n > 16384 then 0
    else begin
      let port = t.next_ephemeral in
      t.next_ephemeral <- (if port >= 65535 then 49152 else port + 1);
      if find_by_port t port = None then port else go (n + 1)
    end
  in
  go 0

let send_datagram ?to_ t s data =
  let target = match to_ with Some _ -> to_ | None -> s.peer in
  match target with
  | None -> `Err "not connected"
  | Some (dst, dst_port) -> (
      if s.bound_port = 0 then begin
        s.bound_port <- alloc_ephemeral t;
        persist t
      end;
      let src = t.src_select dst in
      let dg =
        Udp.encode_partial_csum ~src ~dst
          { Udp.src_port = s.bound_port; dst_port }
          ~payload:data
      in
      (* Zero-copy split: 8-byte header chunk + payload chunk. *)
      let alloc_write b off len =
        let ptr = Pool.alloc t.pool ~len in
        Pool.write t.pool ptr ~src:b ~src_off:off;
        ptr
      in
      match alloc_write dg 0 Udp.header_size with
      | exception Pool.Pool_exhausted -> `Err "out of buffers"
      | hdr_ptr -> (
          let payload_len = Bytes.length dg - Udp.header_size in
          let chain =
            if payload_len = 0 then Some [ hdr_ptr ]
            else
              match alloc_write dg Udp.header_size payload_len with
              | ptr -> Some [ hdr_ptr; ptr ]
              | exception Pool.Pool_exhausted ->
                  free_chain t [ hdr_ptr ];
                  None
          in
          match chain with
          | None -> `Err "out of buffers"
          | Some chain ->
              t.datagrams_out <- t.datagrams_out + 1;
              submit_packet t { chain; src; dst };
              `Sent (Bytes.length data)))

let handle_call t s req (call : Msg.sock_call) =
  match call with
  | Msg.Call_socket -> reply t req (Msg.Ok_socket s.sock_id)
  | Msg.Call_bind { port } ->
      s.bound_port <- port;
      persist t;
      reply t req Msg.Ok_unit
  | Msg.Call_connect { dst; dst_port } ->
      s.peer <- Some (dst, dst_port);
      if s.bound_port = 0 then s.bound_port <- alloc_ephemeral t;
      persist t;
      reply t req Msg.Ok_unit
  | Msg.Call_send { data } -> (
      match send_datagram t s data with
      | `Sent n -> reply t req (Msg.Ok_sent n)
      | `Err e -> reply t req (Msg.Err e))
  | Msg.Call_sendto { data; dst; dst_port } -> (
      if s.bound_port = 0 then begin
        s.bound_port <- alloc_ephemeral t;
        persist t
      end;
      match send_datagram ~to_:(dst, dst_port) t s data with
      | `Sent n -> reply t req (Msg.Ok_sent n)
      | `Err e -> reply t req (Msg.Err e))
  | Msg.Call_recvfrom { max; timeout } ->
      (match s.op with
      | P_none ->
          s.op <- P_recvfrom { req; max };
          progress t s;
          if timeout > 0 && s.op <> P_none then
            s.op_timer <-
              Proc.after t.proc timeout ~cost:100 (fun () ->
                  match s.op with
                  | P_recvfrom { req = r; _ } when r = req ->
                      finish t s req (Msg.Err "timeout")
                  | P_recvfrom _ | P_recv _ | P_none -> ())
      | P_recv _ | P_recvfrom _ -> reply t req (Msg.Err "operation pending"))
  | Msg.Call_recv { max; timeout } ->
      (match s.op with
      | P_none ->
          s.op <- P_recv { req; max };
          progress t s;
          if timeout > 0 && s.op <> P_none then
            s.op_timer <-
              Proc.after t.proc timeout ~cost:100 (fun () ->
                  match s.op with
                  | P_recv { req = r; _ } when r = req ->
                      finish t s req (Msg.Err "timeout")
                  | P_recv _ | P_recvfrom _ | P_none -> ())
      | P_recv _ | P_recvfrom _ -> reply t req (Msg.Err "operation pending"))
  | Msg.Call_select { watch; timeout } ->
      (match t.select_pending with
      | Some _ -> reply t req (Msg.Err "select already pending")
      | None ->
          t.select_pending <- Some (req, watch);
          check_select t;
          if t.select_pending <> None && timeout > 0 then
            t.select_timer <-
              Proc.after t.proc timeout ~cost:100 (fun () ->
                  match t.select_pending with
                  | Some (r, _) when r = req -> finish_select t req (Msg.Ok_ready [])
                  | Some _ | None -> ()))
  | Msg.Call_shutdown -> reply t req (Msg.Err "udp cannot shutdown")
  | Msg.Call_listen _ -> reply t req (Msg.Err "udp cannot listen")
  | Msg.Call_accept _ -> reply t req (Msg.Err "udp cannot accept")
  | Msg.Call_close ->
      Hashtbl.remove t.sockets s.sock_id;
      persist t;
      reply t req Msg.Ok_unit

let handle_rx t buf ~src ~dst =
  (match Registry.read t.registry buf with
  | exception (Registry.Unknown_pool _ | Pool.Stale_pointer _) -> ()
  | dg_bytes -> (
      match Udp.decode ~src ~dst dg_bytes with
      | None -> Stats.incr (Proc.stats t.proc) "bad_checksum"
      | Some (h, payload) -> (
          match find_by_port t h.Udp.dst_port with
          | None -> Stats.incr (Proc.stats t.proc) "no_socket"
          | Some s ->
              if Queue.length s.rxq < max_rxq then
                Queue.push (src, h.Udp.src_port, payload) s.rxq;
              progress t s;
              check_select t)));
  Option.iter
    (fun chan -> ignore (Proc.send t.proc chan (Msg.Rx_done { buf })))
    t.to_ip

let handle_msg t msg =
  let c = costs t in
  match msg with
  | Msg.Sock_req { id; sock = sock_id; call } ->
      (* A send builds and checksums a datagram: the same protocol work
         as a datagram received. *)
      let work =
        match call with
        | Msg.Call_send _ | Msg.Call_sendto _ -> c.Costs.udp_segment_work
        | _ -> 0
      in
      (c.Costs.channel_demux + work, fun () -> handle_call t (sock t sock_id) id call)
  | Msg.Tx_ip_confirm { id; ok = _ } -> (
      ( 100,
        fun () ->
          match Component.Db.complete t.db id with
          | Some pkt -> free_chain t pkt.chain
          | None -> Stats.incr (Proc.stats t.proc) "stale_confirm" ))
  | Msg.Rx_deliver { buf; src; dst } ->
      ( c.Costs.udp_segment_work + c.Costs.channel_marshal + c.Costs.channel_enqueue,
        fun () -> handle_rx t buf ~src ~dst )
  | Msg.Tx_ip _ | Msg.Filter_req _ | Msg.Filter_verdict _ | Msg.Drv_tx _
  | Msg.Drv_tx_confirm _ | Msg.Rx_frame _
  | Msg.Rx_done _ | Msg.Sock_reply _
  | Msg.Sock_event _ ->
      (0, fun () -> Stats.incr (Proc.stats t.proc) "invalid_msg")

let create comp ~registry ~local_addr ~save ~load () =
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:2048 ~slot_size:2048 in
  Registry.register registry pool;
  let rec t =
    {
      comp;
      proc = Component.proc comp;
      registry;
      local_addr;
      save;
      load;
      pool;
      db = Component.create_db comp;
      to_ip = None;
      to_sc = None;
      sockets = Hashtbl.create 32;
      select_pending = None;
      select_timer = ignore;
      next_ephemeral = 49152;
      resubmit = [];
      requeue = (fun _ p -> t.resubmit <- p :: t.resubmit);
      ip_up = true;
      src_select = (fun _ -> local_addr);
      datagrams_out = 0;
    }
  in
  Component.register_pool comp pool;
  Component.on_crash comp (fun () ->
      (* The dead incarnation's timers are guarded ({!Proc.after}). *)
      t.select_pending <- None;
      t.select_timer <- ignore;
      Hashtbl.reset t.sockets;
      t.resubmit <- []);
  Component.on_restart comp ~step:"reload-sockets" (fun ~fresh:_ ->
      (* "It is easy to recreate the sockets after the crash"
         (Section V-D): the 4-tuples come back from the storage
         server. *)
      (match t.load "sockets" with
      | None -> ()
      | Some blob ->
          let socks : (Msg.socket_id * int * (Addr.Ipv4.t * int) option) list =
            Marshal.from_string blob 0
          in
          List.iter
            (fun (id, bound_port, peer) ->
              (* Not via [sock]: its eager persist would overwrite the
                 saved blob with a half-restored table — fatal at the
                 next crash. *)
              Hashtbl.replace t.sockets id (new_socket id ~bound_port ~peer))
            socks);
      (* Re-persist the fully restored table. *)
      persist t);
  t

let set_src_select t f = t.src_select <- f

let connect_ip t ~to_ip ~from_ip =
  t.to_ip <- Some to_ip;
  Component.produce t.comp to_ip;
  Component.consume t.comp from_ip (handle_msg t)

let connect_sc t ~from_sc ~to_sc =
  t.to_sc <- Some to_sc;
  Component.produce t.comp to_sc;
  Component.consume t.comp from_sc (handle_msg t)

let conntrack_flows t =
  Hashtbl.fold
    (fun _ s acc ->
      match s.peer with
      | Some (rip, rport) when s.bound_port <> 0 ->
          {
            Conntrack.proto = Conntrack.Ct_udp;
            local_ip = t.local_addr;
            local_port = s.bound_port;
            remote_ip = rip;
            remote_port = rport;
          }
          :: acc
      | Some _ | None -> acc)
    t.sockets []

let on_ip_crash t =
  t.ip_up <- false;
  ignore (Component.Db.abort_peer t.db ~peer:ip_peer)

let on_ip_restart t =
  t.ip_up <- true;
  let pkts = List.rev t.resubmit in
  t.resubmit <- [];
  (* "We tend to prefer sending extra data" over dropping
     (Section V-D). *)
  Proc.exec t.proc ~cost:(costs t).Costs.udp_segment_work (fun () ->
      List.iter
        (fun pkt -> if Registry.chain_live t.registry pkt.chain then submit_packet t pkt)
        pkts)

let repersist t = persist t
