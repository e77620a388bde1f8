module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Rng = Newt_sim.Rng
module Link = Newt_nic.Link
module Addr = Newt_net.Addr
module Ethernet = Newt_net.Ethernet
module Arp = Newt_net.Arp
module Ipv4 = Newt_net.Ipv4
module Icmp = Newt_net.Icmp
module Udp = Newt_net.Udp
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire

(* The sink's only contact with the outside world: a clock, a timer, a
   frame transmitter and a random stream. The simulator builds one from
   its engine and a {!Link}; the native runtime builds one from
   wall-clock time and an SPSC wire ring. *)
type io = {
  io_now : unit -> Time.cycles;
  io_timer : Time.cycles -> (unit -> unit) -> unit -> unit;
  io_emit : Bytes.t -> unit;
  io_random : int -> int;
}

type t = {
  io : io;
  addr : Addr.Ipv4.t;
  mac : Addr.Mac.t;
  arp : Arp.Cache.t;
  mutable tcp : Tcp.t;
  udp_services :
    (int, src:Addr.Ipv4.t -> src_port:int -> Bytes.t -> Bytes.t option) Hashtbl.t;
  mutable ident : int;
  mutable tcp_bytes : int;
  mutable csum_failures : int;
  mutable next_ping : int;
  pings : (int, int * (rtt:Time.cycles -> unit)) Hashtbl.t;
      (* seq -> (sent-at, callback) *)
}

let tcp t = t.tcp
let tcp_bytes_received t = t.tcp_bytes
let checksum_failures t = t.csum_failures

let send_frame t ~dst_mac ~payload ~ethertype =
  let frame =
    Ethernet.frame { Ethernet.dst = dst_mac; src = t.mac; ethertype } ~payload
  in
  t.io.io_emit frame

let send_ip ?src t ~dst ~proto ~payload =
  let src = Option.value src ~default:t.addr in
  t.ident <- (t.ident + 1) land 0xffff;
  let pkt =
    Ipv4.packet
      { Ipv4.src; dst; protocol = proto; ttl = 64; ident = t.ident; total_len = 0 }
      ~payload
  in
  match Arp.Cache.lookup t.arp dst with
  | Some mac -> send_frame t ~dst_mac:mac ~payload:pkt ~ethertype:Ethernet.Ipv4
  | None -> (
      (* Resolve first; retry when the reply comes. *)
      match
        Arp.Cache.resolve t.arp dst ~on_ready:(fun mac ->
            send_frame t ~dst_mac:mac ~payload:pkt ~ethertype:Ethernet.Ipv4)
      with
      | `Hit mac -> send_frame t ~dst_mac:mac ~payload:pkt ~ethertype:Ethernet.Ipv4
      | `Wait ->
          send_frame t ~dst_mac:Addr.Mac.broadcast
            ~payload:(Arp.encode (Arp.Cache.request_for t.arp dst))
            ~ethertype:Ethernet.Arp
      | `Dropped -> ())

let tcp_config =
  { Tcp.default_config with Tcp.snd_buf = 512 * 1024; rcv_buf = 512 * 1024 }

let make_tcp t =
  Tcp.create ~config:tcp_config
    {
      Tcp.now = t.io.io_now;
      set_timer = (fun delay f -> t.io.io_timer delay f);
      emit =
        (fun ~src:_ ~dst hdr ~payload ->
          let seg = Tcp_wire.encode ~src:t.addr ~dst hdr ~payload in
          send_ip t ~dst ~proto:Ipv4.Tcp ~payload:seg);
      random = t.io.io_random;
    }

(* The IPv4 packet at [off] of a received frame. TCP segments are
   decoded in place and handed to the engine as a window into the
   frame; UDP and ICMP take a copy for their decoders. *)
let handle_ipv4 t frame ~off =
  match Ipv4.payload_at frame ~off with
  | None -> t.csum_failures <- t.csum_failures + 1
  | Some (ih, l4_off, l4_len) -> (
      if Addr.Ipv4.equal ih.Ipv4.dst t.addr then
        match ih.Ipv4.protocol with
        | Ipv4.Tcp ->
            if
              not
                (Tcp.input_segment t.tcp ~src:ih.Ipv4.src ~dst:ih.Ipv4.dst frame
                   ~off:l4_off ~len:l4_len)
            then t.csum_failures <- t.csum_failures + 1
        | Ipv4.Udp -> (
            let l4 = Bytes.sub frame l4_off l4_len in
            match Udp.decode ~src:ih.Ipv4.src ~dst:ih.Ipv4.dst l4 with
            | Some (uh, payload) -> (
                match Hashtbl.find_opt t.udp_services uh.Udp.dst_port with
                | Some service -> (
                    match
                      service ~src:ih.Ipv4.src ~src_port:uh.Udp.src_port payload
                    with
                    | Some response ->
                        let dg =
                          Udp.encode ~src:t.addr ~dst:ih.Ipv4.src
                            { Udp.src_port = uh.Udp.dst_port; dst_port = uh.Udp.src_port }
                            ~payload:response
                        in
                        send_ip t ~dst:ih.Ipv4.src ~proto:Ipv4.Udp ~payload:dg
                    | None -> ())
                | None -> ())
            | None -> t.csum_failures <- t.csum_failures + 1)
        | Ipv4.Icmp -> (
            match Icmp.decode (Bytes.sub frame l4_off l4_len) with
            | Some msg -> (
                match msg with
                | Icmp.Echo_reply { seq; _ } -> (
                    match Hashtbl.find_opt t.pings seq with
                    | Some (sent_at, k) ->
                        Hashtbl.remove t.pings seq;
                        k ~rtt:(t.io.io_now () - sent_at)
                    | None -> ())
                | Icmp.Echo_request _ | Icmp.Dest_unreachable _ -> (
                    match Icmp.reply_to msg with
                    | Some reply ->
                        send_ip t ~dst:ih.Ipv4.src ~proto:Ipv4.Icmp
                          ~payload:(Icmp.encode reply)
                    | None -> ()))
            | None -> t.csum_failures <- t.csum_failures + 1)
        | Ipv4.Unknown _ -> ())

let handle_frame t frame =
  match Ethernet.decode_header frame ~off:0 with
  | None -> ()
  | Some eh -> (
      match eh.Ethernet.ethertype with
      | Ethernet.Arp -> (
          match Option.bind (Ethernet.payload frame) Arp.decode with
          | Some arp_pkt -> (
              match Arp.Cache.input t.arp arp_pkt with
              | Some reply ->
                  send_frame t ~dst_mac:arp_pkt.Arp.sender_mac
                    ~payload:(Arp.encode reply) ~ethertype:Ethernet.Arp
              | None -> ())
          | None -> ())
      | Ethernet.Ipv4 -> handle_ipv4 t frame ~off:Ethernet.header_size
      | Ethernet.Unknown _ -> ())

let create_io io ~addr ~mac () =
  let t =
    {
      io;
      addr;
      mac;
      arp = Arp.Cache.create ~my_mac:mac ~my_ip:addr ();
      tcp = Tcp.create { Tcp.now = (fun () -> 0); set_timer = (fun _ _ () -> ()); emit = (fun ~src:_ ~dst:_ _ ~payload:_ -> ()); random = (fun _ -> 0) };
      udp_services = Hashtbl.create 8;
      next_ping = 0;
      pings = Hashtbl.create 8;
      ident = 0;
      tcp_bytes = 0;
      csum_failures = 0;
    }
  in
  t.tcp <- make_tcp t;
  t

let create engine ~link ~side ~addr ~mac () =
  let rng = Rng.split (Engine.rng engine) in
  let io =
    {
      io_now = (fun () -> Engine.now engine);
      io_timer =
        (fun delay f ->
          let h = Engine.schedule engine delay f in
          fun () -> Engine.cancel h);
      io_emit = (fun frame -> ignore (Link.transmit link ~from:side frame));
      io_random = (fun bound -> Rng.int rng bound);
    }
  in
  let t = create_io io ~addr ~mac () in
  Link.attach link side (fun frame -> handle_frame t frame);
  t

let sink_tcp t ~port ~on_bytes =
  Tcp.listen t.tcp ~port ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              let data = Tcp.recv pcb ~max:10_000_000 in
              let n = Bytes.length data in
              if n > 0 then begin
                t.tcp_bytes <- t.tcp_bytes + n;
                on_bytes ~at:(t.io.io_now ()) n
              end;
              if Tcp.recv_eof pcb then Tcp.close pcb
          | Tcp.Connected | Tcp.Accepted | Tcp.Writable | Tcp.Closed_normally
          | Tcp.Reset ->
              ()))

let serve_udp_full t ~port service = Hashtbl.replace t.udp_services port service

let serve_udp t ~port service =
  serve_udp_full t ~port (fun ~src:_ ~src_port:_ payload -> service payload)

let send_udp t ~dst ~dst_port ~src_port payload =
  let dg = Udp.encode ~src:t.addr ~dst { Udp.src_port; dst_port } ~payload in
  send_ip t ~dst ~proto:Ipv4.Udp ~payload:dg

let serve_dns t ~zone () =
  serve_udp t ~port:53 (fun payload ->
      match Newt_net.Dns.decode payload with
      | Some q when not q.Newt_net.Dns.is_response ->
          let addr =
            match q.Newt_net.Dns.questions with
            | { Newt_net.Dns.qname; _ } :: _ -> zone qname
            | [] -> None
          in
          Some (Newt_net.Dns.encode (Newt_net.Dns.response ~query:q addr))
      | Some _ | None -> None)

let serve_tcp_echo t ~port =
  Tcp.listen t.tcp ~port ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              let data = Tcp.recv pcb ~max:1_000_000 in
              if Bytes.length data > 0 then
                ignore (Tcp.send pcb data ~off:0 ~len:(Bytes.length data));
              if Tcp.recv_eof pcb then Tcp.close pcb
          | Tcp.Connected | Tcp.Accepted | Tcp.Writable | Tcp.Closed_normally
          | Tcp.Reset ->
              ()))

let connect t ~dst ~dst_port = Tcp.connect t.tcp ~src:t.addr ~dst ~dst_port ()

(* A bare SYN from a (usually spoofed) source: the attack primitive of
   the flood scenarios. No pcb is created on this side — the victim's
   SYN-ACK goes to an address that never answers ARP, so its handshake
   stays half-open until its retries exhaust. *)
let send_tcp_syn t ~src ~src_port ~dst ~dst_port =
  let hdr =
    {
      Tcp_wire.src_port;
      dst_port;
      seq = t.io.io_random 0x3FFFFFFF;
      ack = 0;
      flags = Tcp_wire.flag_syn;
      window = 65535;
      mss = Some 1460;
      wscale = None;
    }
  in
  let seg = Tcp_wire.encode ~src ~dst hdr ~payload:Bytes.empty in
  send_ip ~src t ~dst ~proto:Ipv4.Tcp ~payload:seg

let ping t ~dst k =
  t.next_ping <- t.next_ping + 1;
  let seq = t.next_ping land 0xffff in
  Hashtbl.replace t.pings seq (t.io.io_now (), k);
  send_ip t ~dst ~proto:Ipv4.Icmp
    ~payload:
      (Icmp.encode (Icmp.Echo_request { ident = 1; seq; data = Bytes.create 56 }))
