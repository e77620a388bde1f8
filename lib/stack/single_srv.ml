module Engine = Newt_sim.Engine
module Stats = Newt_sim.Stats
module Rng = Newt_sim.Rng
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Rich_ptr = Newt_channels.Rich_ptr
module Registry = Newt_channels.Registry
module Request_db = Newt_channels.Request_db
module Addr = Newt_net.Addr
module Arp = Newt_net.Arp
module Ethernet = Newt_net.Ethernet
module Ipv4 = Newt_net.Ipv4
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire

type iface = {
  addr : Addr.Ipv4.t;
  mac : Addr.Mac.t;
  tx : Msg.t Sim_chan.t;
  arp : Arp.Cache.t;
}

type t = {
  machine : Machine.t;
  proc : Proc.t;
  local_addr : Addr.Ipv4.t;
  pool : Pool.t;  (* whole frames, built in place *)
  rx_pool : Pool.t;
  mutable ifaces : iface list;
  route_table : Ipv4.Route.table;
  db : Rich_ptr.chain Request_db.t;  (* in-flight frames at the drivers *)
  release : Rich_ptr.chain Request_db.abort;
      (* Every frame's abort action (its driver crashed): free it. *)
  mutable tcp : Tcp.t;
  socks : Tcp_srv.sockets Lazy.t;  (* over [tcp], once it is built *)
  mutable ident : int;
  rng : Rng.t;
}

let costs t = Machine.costs t.machine
let iface t i = List.nth t.ifaces i

let free_chain t chain =
  List.iter (fun p -> try Pool.free t.pool p with Pool.Stale_pointer _ -> ()) chain

(* {2 Transmit: function calls down to the frame, one channel hop} *)

let transmit_frame t ~iface:i frame_bytes ~tso =
  match Pool.alloc t.pool ~len:(Bytes.length frame_bytes) with
  | exception Pool.Pool_exhausted -> Stats.incr (Proc.stats t.proc) "pool_exhausted"
  | ptr ->
      Pool.write t.pool ptr ~src:frame_bytes ~src_off:0;
      let id =
        Request_db.submit t.db ~peer:i ~payload:[ ptr ] ~abort:t.release
      in
      let sent =
        Proc.send t.proc (iface t i).tx
          (Msg.Drv_tx
             { id; chain = [ ptr ]; csum_offload = true; tso; tso_mss = 1460; queue = 0 })
      in
      if not sent then begin
        ignore (Request_db.complete t.db id);
        free_chain t [ ptr ]
      end

let emit t ~src ~dst (hdr : Tcp_wire.header) ~payload =
  let c = costs t in
  let cost =
    (* TCP work plus the in-process IP layer; the headers are patched
       into the same buffer, no cross-pool copy. *)
    c.Costs.tcp_segment_work + c.Costs.ip_tx_work + c.Costs.channel_marshal
    + c.Costs.channel_enqueue
  in
  Proc.exec t.proc ~cost (fun () ->
      match Ipv4.Route.lookup t.route_table dst with
      | None -> ()
      | Some route -> (
          let i = route.Ipv4.Route.iface in
          let ifc = iface t i in
          let next_hop =
            match route.Ipv4.Route.gateway with Some g -> g | None -> dst
          in
          let continue mac =
            let seg = Tcp_wire.encode ~src ~dst ~partial_csum:true hdr ~payload in
            t.ident <- (t.ident + 1) land 0xffff;
            let pkt =
              Ipv4.packet
                {
                  Ipv4.src = src;
                  dst;
                  protocol = Ipv4.Tcp;
                  ttl = 64;
                  ident = t.ident;
                  total_len = 0;
                }
                ~payload:seg
            in
            let frame =
              Ethernet.frame
                { Ethernet.dst = mac; src = ifc.mac; ethertype = Ethernet.Ipv4 }
                ~payload:pkt
            in
            transmit_frame t ~iface:i frame ~tso:(Bytes.length payload > 1460)
          in
          match
            Arp.Cache.resolve ifc.arp next_hop ~on_ready:(fun mac ->
                Proc.exec t.proc ~cost:(costs t).Costs.ip_tx_work (fun () ->
                    continue mac))
          with
          | `Hit mac -> continue mac
          | `Wait ->
              let req = Arp.Cache.request_for ifc.arp next_hop in
              let frame =
                Ethernet.frame
                  { Ethernet.dst = Addr.Mac.broadcast; src = ifc.mac; ethertype = Ethernet.Arp }
                  ~payload:(Arp.encode req)
              in
              transmit_frame t ~iface:i frame ~tso:false
          | `Dropped -> ()))

let make_tcp t =
  Tcp.create
    {
      Tcp.now = (fun () -> Engine.now (Machine.engine t.machine));
      set_timer =
        (fun delay f ->
          let h =
            Engine.schedule (Machine.engine t.machine) delay (fun () ->
                Proc.exec t.proc ~cost:200 f)
          in
          fun () -> Engine.cancel h);
      emit = (fun ~src ~dst hdr ~payload -> emit t ~src ~dst hdr ~payload);
      random = (fun bound -> Rng.int t.rng bound);
    }

(* Source-address selection: the address of the interface the route to
   the destination uses. *)
let src_for t dst =
  match Ipv4.Route.lookup t.route_table dst with
  | Some route when route.Ipv4.Route.iface < List.length t.ifaces ->
      (iface t route.Ipv4.Route.iface).addr
  | Some _ | None -> t.local_addr

(* {2 Receive} *)

let handle_rx t ~iface:i ~buf ~len =
  (match Pool.read t.rx_pool { buf with Rich_ptr.len } with
  | exception Pool.Stale_pointer _ -> ()
  | frame -> (
      match Ethernet.decode_header frame ~off:0 with
      | Some { Ethernet.ethertype = Ethernet.Arp; _ } -> (
          let ifc = iface t i in
          match Option.bind (Ethernet.payload frame) Arp.decode with
          | Some p -> (
              match Arp.Cache.input ifc.arp p with
              | Some arp_reply ->
                  let f =
                    Ethernet.frame
                      { Ethernet.dst = p.Arp.sender_mac; src = ifc.mac; ethertype = Ethernet.Arp }
                      ~payload:(Arp.encode arp_reply)
                  in
                  transmit_frame t ~iface:i f ~tso:false
              | None -> ())
          | None -> ())
      | Some { Ethernet.ethertype = Ethernet.Ipv4; _ } -> (
          match Ipv4.payload_at frame ~off:Ethernet.header_size with
          | Some (ih, off, len) -> (
              match ih.Ipv4.protocol with
              | Ipv4.Tcp ->
                  ignore
                    (Tcp.input_segment t.tcp ~src:ih.Ipv4.src ~dst:ih.Ipv4.dst frame ~off
                       ~len)
              | Ipv4.Udp | Ipv4.Icmp | Ipv4.Unknown _ -> ())
          | None -> ())
      | Some { Ethernet.ethertype = Ethernet.Unknown _; _ } | None -> ()));
  (* In-process: free the receive buffer directly, no Rx_done hop. *)
  try Pool.free t.rx_pool buf with Pool.Stale_pointer _ -> ()

let handle_msg t ~rx_iface msg =
  let c = costs t in
  match msg with
  | Msg.Sock_req { id; sock = sock_id; call } ->
      ( c.Costs.channel_demux,
        fun () -> Tcp_srv.sock_call (Lazy.force t.socks) id sock_id call )
  | Msg.Drv_tx_confirm { ids; ok = _ } ->
      (* Completions free in a tight scan: a fraction of the
         cross-domain demux cost. *)
      ( c.Costs.channel_demux / c.Costs.confirm_batch,
        fun () ->
          List.iter
            (fun id ->
              match Request_db.complete t.db id with
              | Some chain -> free_chain t chain
              | None -> ())
            ids )
  | Msg.Rx_frame { buf; len } ->
      ( c.Costs.ip_rx_work + c.Costs.tcp_ack_work,
        fun () -> handle_rx t ~iface:rx_iface ~buf ~len )
  | Msg.Tx_ip _ | Msg.Tx_ip_confirm _ | Msg.Filter_req _ | Msg.Filter_verdict _
  | Msg.Drv_tx _ | Msg.Rx_deliver _
  | Msg.Rx_done _ | Msg.Sock_reply _
  | Msg.Sock_event _ ->
      (0, fun () -> Stats.incr (Proc.stats t.proc) "invalid_msg")

(* {2 Construction} *)

let create machine ~proc ~registry ~local_addr () =
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:8192 ~slot_size:2048 in
  let rx_pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:4096 ~slot_size:2048 in
  Registry.register registry pool;
  Registry.register registry rx_pool;
  let rec t =
    {
      machine;
      proc;
      local_addr;
      pool;
      rx_pool;
      ifaces = [];
      route_table = Ipv4.Route.create ();
      db = Request_db.create ();
      release = (fun _ chain -> free_chain t chain);
      tcp =
        Tcp.create
          {
            Tcp.now = (fun () -> 0);
            set_timer = (fun _ _ () -> ());
            emit = (fun ~src:_ ~dst:_ _ ~payload:_ -> ());
            random = (fun _ -> 0);
          };
      socks =
        lazy (Tcp_srv.sockets proc t.tcp ~src_select:(src_for t) ~save:(fun _ _ -> ()));
      ident = 0;
      rng = Rng.split (Engine.rng (Machine.engine machine));
    }
  in
  t.tcp <- make_tcp t;
  t

let add_iface t ~addr ~mac ~drv ~tx_chan ~rx_chan =
  let i = List.length t.ifaces in
  t.ifaces <-
    t.ifaces @ [ { addr; mac; tx = tx_chan; arp = Arp.Cache.create ~my_mac:mac ~my_ip:addr () } ];
  Proc.add_rx t.proc rx_chan (handle_msg t ~rx_iface:i);
  Drv_srv.connect_ip drv ~rx_from_ip:tx_chan ~tx_to_ip:rx_chan;
  Drv_srv.grant_rx_pool drv
    ~alloc:(fun () ->
      match Pool.alloc t.rx_pool ~len:(Pool.slot_size t.rx_pool) with
      | ptr -> Some ptr
      | exception Pool.Pool_exhausted -> None)
    ~write:(fun ptr frame ->
      let narrowed = { ptr with Rich_ptr.len = Bytes.length frame } in
      try Pool.write t.rx_pool narrowed ~src:frame ~src_off:0
      with Pool.Stale_pointer _ -> ());
  i

let add_route t ~prefix ~bits ~iface ~gateway =
  Ipv4.Route.add t.route_table { Ipv4.Route.prefix; bits; iface; gateway }

let add_neighbor t ~iface:i addr mac = Arp.Cache.insert (iface t i).arp addr mac

let connect_sc t ~from_sc ~to_sc =
  Tcp_srv.reply_to (Lazy.force t.socks) to_sc;
  Proc.add_rx t.proc from_sc (handle_msg t ~rx_iface:0)
