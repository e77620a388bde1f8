module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Rng = Newt_sim.Rng
module Machine = Newt_hw.Machine
module Cpu = Newt_hw.Cpu
module Costs = Newt_hw.Costs
module Link = Newt_nic.Link
module Addr = Newt_net.Addr
module Ethernet = Newt_net.Ethernet
module Ipv4 = Newt_net.Ipv4
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire

(* The old INET server predates lwIP: linked-list buffer walks,
   per-byte option parsing — a constant factor over the protocol work
   of the modern engine. *)
let inet_legacy_factor = 4

let app_pid = 1
let inet_pid = 2
let drv_pid = 3

type t = {
  machine : Machine.t;
  core : Cpu.t;
  link : Link.t;
  addr : Addr.Ipv4.t;
  my_mac : Addr.Mac.t;
  peer_mac : Addr.Mac.t;
  mutable tcp : Tcp.t;
  mutable ident : int;
  tx_queue : Bytes.t Queue.t;
  mutable tx_busy : bool;
  mutable bytes_sent : int;
  mutable sync_ipcs : int;
  mutable running : bool;
  rng : Rng.t;
}

let engine t = Machine.engine t.machine
let costs t = Machine.costs t.machine
let bytes_sent t = t.bytes_sent
let sync_ipc_count t = t.sync_ipcs

let core_utilization t = Cpu.utilization t.core ~now:(Engine.now (engine t))

(* A synchronous kernel IPC round trip charged to [proc]'s slice: two
   cold mode switches plus the kernel's message copy. The context
   switch to the serving process is charged by the core model itself
   when the next job runs under a different pid. *)
let sendrec t ~proc k =
  t.sync_ipcs <- t.sync_ipcs + 1;
  Cpu.exec t.core ~proc ~cost:(Costs.kipc_sendrec_cost (costs t) ~cold:true) k

(* {2 The driver: one packet at a time, two round trips each} *)

let driver_transmit t frame k =
  let c = costs t in
  (* DL_WRITEV: INET sends the request... *)
  sendrec t ~proc:inet_pid (fun () ->
      (* ...the driver copies the packet and programs the device... *)
      Cpu.exec t.core ~proc:drv_pid
        ~cost:(Costs.copy_cost c (Bytes.length frame) + c.Costs.driver_packet_work)
        (fun () ->
          ignore (Link.transmit t.link ~from:Link.Left frame);
          (* ...and the completion travels back as a second round
             trip before INET may send the next packet. *)
          sendrec t ~proc:drv_pid (fun () -> Cpu.exec t.core ~proc:inet_pid ~cost:100 k)))

(* {2 The INET server} *)

(* Serialize outgoing segments: the whole path down to the driver and
   back is synchronous, so segments queue inside INET. *)
let rec drain_tx t =
  match Queue.take_opt t.tx_queue with
  | None -> t.tx_busy <- false
  | Some frame -> driver_transmit t frame (fun () -> drain_tx t)

let enqueue_tx t frame =
  Queue.push frame t.tx_queue;
  if not t.tx_busy then begin
    t.tx_busy <- true;
    drain_tx t
  end

let inet_emit t ~dst hdr ~payload =
  let c = costs t in
  (* Header construction, software checksum over the segment, and the
     copy into the driver-bound buffer. *)
  let seg = Tcp_wire.encode ~src:t.addr ~dst hdr ~payload in
  t.ident <- (t.ident + 1) land 0xffff;
  let pkt =
    Ipv4.packet
      { Ipv4.src = t.addr; dst; protocol = Ipv4.Tcp; ttl = 64; ident = t.ident; total_len = 0 }
      ~payload:seg
  in
  let frame =
    Ethernet.frame
      { Ethernet.dst = t.peer_mac; src = t.my_mac; ethertype = Ethernet.Ipv4 }
      ~payload:pkt
  in
  let work =
    (c.Costs.tcp_segment_work * inet_legacy_factor)
    + Costs.checksum_cost c (Bytes.length seg)
    + Costs.copy_cost c (Bytes.length seg)
  in
  Cpu.exec t.core ~proc:inet_pid ~cost:work (fun () -> enqueue_tx t frame)

let make_tcp t =
  Tcp.create
    {
      Tcp.now = (fun () -> Engine.now (engine t));
      set_timer =
        (fun delay f ->
          let h =
            Engine.schedule (engine t) delay (fun () ->
                Cpu.exec t.core ~proc:inet_pid ~cost:500 f)
          in
          fun () -> Engine.cancel h);
      emit = (fun ~src:_ ~dst hdr ~payload -> inet_emit t ~dst hdr ~payload);
      random = (fun bound -> Rng.int t.rng bound);
    }

(* {2 Receive: interrupt -> driver -> INET} *)

let on_rx t frame =
  let c = costs t in
  (* The kernel converts the interrupt into a message for the driver;
     the driver copies the packet out and wakes INET with another
     synchronous exchange. *)
  Cpu.exec t.core ~proc:drv_pid
    ~cost:(c.Costs.trap_cold + Costs.copy_cost c (Bytes.length frame))
    (fun () ->
      sendrec t ~proc:drv_pid (fun () ->
          Cpu.exec t.core ~proc:inet_pid
            ~cost:(c.Costs.tcp_ack_work * inet_legacy_factor)
            (fun () ->
              match Ethernet.decode_header frame ~off:0 with
              | Some { Ethernet.ethertype = Ethernet.Arp; _ } -> (
                  (* INET answers ARP for its address. *)
                  match Option.bind (Ethernet.payload frame) Newt_net.Arp.decode with
                  | Some req
                    when req.Newt_net.Arp.op = Newt_net.Arp.Request
                         && Addr.Ipv4.equal req.Newt_net.Arp.target_ip t.addr ->
                      let reply =
                        {
                          Newt_net.Arp.op = Newt_net.Arp.Reply;
                          sender_mac = t.my_mac;
                          sender_ip = t.addr;
                          target_mac = req.Newt_net.Arp.sender_mac;
                          target_ip = req.Newt_net.Arp.sender_ip;
                        }
                      in
                      enqueue_tx t
                        (Ethernet.frame
                           {
                             Ethernet.dst = req.Newt_net.Arp.sender_mac;
                             src = t.my_mac;
                             ethertype = Ethernet.Arp;
                           }
                           ~payload:(Newt_net.Arp.encode reply))
                  | Some _ | None -> ())
              | Some { Ethernet.ethertype = Ethernet.Ipv4; _ } -> (
                  match Ipv4.payload_at frame ~off:Ethernet.header_size with
                  | Some (ih, off, len) when Addr.Ipv4.equal ih.Ipv4.dst t.addr -> (
                      match ih.Ipv4.protocol with
                      | Ipv4.Tcp ->
                          ignore
                            (Tcp.input_segment t.tcp ~src:ih.Ipv4.src ~dst:ih.Ipv4.dst
                               frame ~off ~len)
                      | Ipv4.Udp | Ipv4.Icmp | Ipv4.Unknown _ -> ())
                  | Some _ | None -> ())
              | Some { Ethernet.ethertype = Ethernet.Unknown _; _ } | None -> ())))

let create machine ~link ~addr ~peer_mac () =
  let core = Machine.add_timeshared_core machine in
  let t =
    {
      machine;
      core;
      link;
      addr;
      my_mac = Addr.Mac.of_index 0x9999;
      peer_mac;
      tcp =
        Tcp.create
          {
            Tcp.now = (fun () -> 0);
            set_timer = (fun _ _ () -> ());
            emit = (fun ~src:_ ~dst:_ _ ~payload:_ -> ());
            random = (fun _ -> 0);
          };
      ident = 0;
      tx_queue = Queue.create ();
      tx_busy = false;
      bytes_sent = 0;
      sync_ipcs = 0;
      running = false;
      rng = Rng.split (Engine.rng (Machine.engine machine));
    }
  in
  t.tcp <- make_tcp t;
  Link.attach link Link.Left (fun frame -> on_rx t frame);
  t

(* {2 The application} *)

(* The application's write granularity. *)
let write_size = 8192

let start_iperf t ~dst ~port ~until =
  t.running <- true;
  let c = costs t in
  let pcb = Tcp.connect t.tcp ~src:t.addr ~dst ~dst_port:port () in
  let rec pump () =
    if Engine.now (engine t) < until && t.running then begin
      (* write(): the app traps, the kernel copies the buffer to INET,
         INET queues it into the socket's send buffer. *)
      sendrec t ~proc:app_pid (fun () ->
          Cpu.exec t.core ~proc:inet_pid
            ~cost:(Costs.copy_cost c write_size)
            (fun () ->
              let accepted = Tcp.send pcb (Bytes.make write_size 'm') ~off:0 ~len:write_size in
              t.bytes_sent <- t.bytes_sent + accepted;
              if accepted > 0 then pump ()
              (* Buffer full: the app blocks until space frees. *)))
    end
    else if t.running then begin
      t.running <- false;
      Tcp.close pcb
    end
  in
  Tcp.set_handler pcb (fun ev ->
      match ev with
      | Tcp.Connected -> pump ()
      | Tcp.Writable -> if t.running then pump ()
      | Tcp.Accepted | Tcp.Readable | Tcp.Closed_normally | Tcp.Reset -> ())
