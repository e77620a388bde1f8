module Stats = Newt_sim.Stats
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Rich_ptr = Newt_channels.Rich_ptr
module Registry = Newt_channels.Registry
module Hook = Newt_channels.Hook
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4
module Icmp = Newt_net.Icmp
module Arp = Newt_net.Arp
module Ethernet = Newt_net.Ethernet

type iface_config = {
  addr : Addr.Ipv4.t;
  netmask_bits : int;
  mac : Addr.Mac.t;
}

type origin =
  | From_tcp of { shard : int; id : int }
  | From_udp of { shard : int; id : int }
  | Local

type pending =
  | Pf_out of {
      origin : origin;
      chain : Rich_ptr.chain;
      iface : int;
      hdr : Rich_ptr.t;
      tso : bool;
      pkt : Bytes.t;
    }
  | Pf_in of { buf : Rich_ptr.t; pkt : Bytes.t }
  | Drv of { origin : origin; hdr : Rich_ptr.t; chain : Rich_ptr.chain; iface : int; tso : bool }

type driver_hooks = {
  drv_connect :
    rx_from_ip:Msg.t Sim_chan.t -> tx_to_ip:Msg.t Sim_chan.t -> unit;
  drv_grant_rx_pool :
    alloc:(unit -> Rich_ptr.t option) ->
    write:(Rich_ptr.t -> Bytes.t -> unit) ->
    unit;
  drv_on_ip_crash : unit -> unit;
  drv_on_ip_restart : unit -> unit;
}

type iface = {
  cfg : iface_config;
  drv : driver_hooks;
  tx : Msg.t Sim_chan.t;
  arp : Arp.Cache.t;
  mutable drv_up : bool;
}

(* Upward fan-out to a (possibly sharded) transport: [steer] maps a
   flow's 4-tuple to the shard index — the same function the NIC's RSS
   table implements, so a flow always lands on one shard. *)
type fanout = {
  chans : Msg.t Sim_chan.t array;
  steer :
    src:Addr.Ipv4.t -> sport:int -> dst:Addr.Ipv4.t -> dport:int -> int;
}

(* Downward fan-out to a (possibly sharded) packet filter: [pf_steer]
   maps a flow's 4-tuple to the PF shard, with the same symmetric flow
   hash the transport fan-out uses, so a flow's packets — both
   directions — always meet the same conntrack partition. *)
type pf_set = {
  pf_chans : Msg.t Sim_chan.t array;
  pf_steer :
    src:Addr.Ipv4.t -> sport:int -> dst:Addr.Ipv4.t -> dport:int -> int;
  pf_up : bool array;
}

(* Which channel a message arrived on decides how we interpret it:
   frames know their port, transport requests know their shard. *)
type source =
  | Src_iface of int
  | Src_transport of [ `Tcp | `Udp ] * int
  | Src_other

type t = {
  comp : Component.t;
  proc : Proc.t;
  registry : Registry.t;
  save : string -> string -> unit;
  load : string -> string option;
  mutable ifaces : iface list;  (* index = position *)
  rx_pool : Pool.t;
  hdr_pool : Pool.t;
  db : pending Component.Db.t;
  route_table : Ipv4.Route.table;
  mutable pf : pf_set option;
  mutable to_tcp : fanout option;
  mutable to_udp : fanout option;
  held_bufs : (int, Rich_ptr.t * ([ `Tcp | `Udp ] * int)) Hashtbl.t;
      (* Receive-pool frames lent to a transport shard, by slot. *)
  mutable resubmit_pf : pending list;
  mutable resubmit_drv : pending list;
  hold_for_pf : pending Newt_channels.Request_db.abort;
  hold_for_drv : pending Newt_channels.Request_db.abort;
      (* The abort actions of every filter and driver request: hold the
         packet for resubmission. One closure each per server. *)
  mutable ident : int;
  mutable packets_forwarded : int;
  mutable icmp_echoes : int;
  (* Replication support: which TX queue Local-origin frames (ARP,
     ICMP) leave on, a hook fired when an ARP mapping is learned from
     the network, and a hand-off for buffers freed to us that belong to
     a sibling replica's receive pool. *)
  mutable local_queue : int;
  mutable arp_announce :
    (iface:int -> Addr.Ipv4.t -> Addr.Mac.t -> unit) option;
  mutable buf_return : (Rich_ptr.t -> unit) option;
  eth_hdr : Bytes.t;  (* scratch for peeking at a received frame's header *)
}

let pf_peer shard = 100 + shard
let drv_peer iface = 10 + iface

let comp t = t.comp
let costs t = Machine.costs (Component.machine t.comp)
let routes t = Ipv4.Route.entries t.route_table
let rx_pool_in_use t = Pool.in_use t.rx_pool
let rx_pool_id t = Pool.id t.rx_pool
let hdr_pool_in_use t = Pool.in_use t.hdr_pool
let packets_forwarded t = t.packets_forwarded
let icmp_echoes_answered t = t.icmp_echoes

let iface t i = List.nth t.ifaces i
let iface_count t = List.length t.ifaces

let free_ptr pool ptr =
  try Pool.free pool ptr with Pool.Stale_pointer _ -> ()

let free_hdr t ptr = free_ptr t.hdr_pool ptr
let free_rx t ptr = free_ptr t.rx_pool ptr

let marshal_cost t = (costs t).Costs.channel_marshal + (costs t).Costs.channel_enqueue

let fanout_chan fan shard =
  let n = Array.length fan.chans in
  if n = 0 then None else Some fan.chans.(shard mod n)

let confirm_origin t origin ok =
  let send fan shard id =
    match fan with
    | None -> ()
    | Some fan ->
        Option.iter
          (fun chan -> ignore (Proc.send t.proc chan (Msg.Tx_ip_confirm { id; ok })))
          (fanout_chan fan shard)
  in
  match origin with
  | Local -> ()
  | From_tcp { shard; id } -> send t.to_tcp shard id
  | From_udp { shard; id } -> send t.to_udp shard id

(* The TX queue a packet should leave on: its origin shard, so the
   device's TX completion stays on the queue the flow's RX side uses.
   Local-origin frames (ARP, ICMP) use [local_queue], which a
   replicated deployment points at one of this replica's own queues so
   the confirm comes back to the right instance. *)
let origin_queue t = function
  | Local -> t.local_queue
  | From_tcp { shard; _ } | From_udp { shard; _ } -> shard

(* {2 Transmit path} *)

(* Hand a complete frame to a driver; registers the in-flight request so
   a driver crash can be recovered by resubmission. *)
let transmit_frame t ~iface:i ~origin ~hdr ~chain ~tso =
  let ifc = iface t i in
  let p = Drv { origin; hdr; chain; iface = i; tso } in
  if not ifc.drv_up then t.resubmit_drv <- p :: t.resubmit_drv
  else begin
    let id =
      Component.Db.submit t.db ~peer:(drv_peer i) ~payload:p
        ~abort:t.hold_for_drv
    in
    t.packets_forwarded <- t.packets_forwarded + 1;
    let sent =
      Proc.send t.proc ifc.tx
        (Msg.Drv_tx
           {
             id;
             chain;
             csum_offload = true;
             tso;
             tso_mss = 1460;
             queue = origin_queue t origin;
           })
    in
    if not sent then begin
      (* Queue full: drop this packet (acceptable for a network stack,
         Section IV-A) and tell the origin it failed. *)
      ignore (Component.Db.complete t.db id);
      free_hdr t hdr;
      confirm_origin t origin false
    end
  end

(* The PF shard a packet belongs to: parsed from the IP header the
   filter will classify ([pkt] starts at the IP header for both
   directions). The steer function is symmetric in the two endpoints,
   so no direction normalization is needed. Unparseable packets go to
   shard 0 — the filter will block them anyway. *)
let pf_shard_of pf pkt =
  let n = Array.length pf.pf_chans in
  if n <= 1 || Bytes.length pkt < 20 then 0
  else begin
    let ip_at off = Addr.Ipv4.of_int32 (Bytes.get_int32_be pkt off) in
    let src = ip_at 12 and dst = ip_at 16 in
    let proto = Char.code (Bytes.get pkt 9) in
    let sport, dport =
      if (proto = 6 || proto = 17) && Bytes.length pkt >= 24 then
        (Bytes.get_uint16_be pkt 20, Bytes.get_uint16_be pkt 22)
      else (0, 0)
    in
    pf.pf_steer ~src ~sport ~dst ~dport mod n
  end

(* Submit a packet (either direction) to its packet filter shard, or
   pass it straight through when no filter is configured. *)
let to_filter t pending =
  match (t.pf, pending) with
  | None, Pf_out { origin; chain; iface; hdr; tso; _ } ->
      transmit_frame t ~iface ~origin ~hdr ~chain ~tso
  | None, Pf_in _ -> assert false (* handled by caller when no PF *)
  | Some pf, (Pf_out { pkt; _ } | Pf_in { pkt; _ }) ->
      let dir = match pending with Pf_in _ -> `In | Pf_out _ | Drv _ -> `Out in
      let shard = pf_shard_of pf pkt in
      if not pf.pf_up.(shard) then
        (* That filter shard is restarting: hold the packet, no loss
           (Figure 5) — the other shards' traffic keeps flowing. *)
        t.resubmit_pf <- pending :: t.resubmit_pf
      else begin
        let id =
          Component.Db.submit t.db ~peer:(pf_peer shard) ~payload:pending
            ~abort:t.hold_for_pf
        in
        if not (Proc.send t.proc pf.pf_chans.(shard) (Msg.Filter_req { id; dir; pkt }))
        then begin
          ignore (Component.Db.complete t.db id);
          t.resubmit_pf <- pending :: t.resubmit_pf
        end
      end
  | _, Drv _ -> assert false

(* Build the merged Ethernet+IP+L4-header chunk and queue the packet for
   the outgoing filter pass. [l4chain]'s first chunk must be the L4
   header (with a partial checksum for the NIC to finalize).

   A Local request's chunks (an ICMP reply IP built itself) belong to
   no transport that would free them at its confirm: IP frees them
   once the header is copied into the merged one, or when it gives
   up on the packet. *)
let start_tx t ~origin ~src ~dst ~proto ~l4chain ~tso =
  let free_local chunks =
    match origin with
    | Local -> List.iter (free_hdr t) chunks
    | From_tcp _ | From_udp _ -> ()
  in
  let fail () =
    free_local l4chain;
    confirm_origin t origin false
  in
  match Ipv4.Route.lookup t.route_table dst with
  | None -> fail ()
  | Some route -> (
      let i = route.Ipv4.Route.iface in
      if i >= iface_count t then fail ()
      else
        let ifc = iface t i in
        let next_hop =
          match route.Ipv4.Route.gateway with Some g -> g | None -> dst
        in
        let continue dst_mac =
          match l4chain with
        | [] -> fail ()
        | l4hdr_ptr :: payload_chunks -> (
            match Registry.read t.registry l4hdr_ptr with
            | exception (Pool.Stale_pointer _ | Registry.Unknown_pool _) ->
                (* The originator crashed (its pool died) while this
                   request waited in our queue: an invalid request, to
                   be ignored (Section IV-A). *)
                Stats.incr (Proc.stats t.proc) "stale_request";
                fail ()
            | l4hdr ->
            let l4hdr_len = Bytes.length l4hdr in
            let total_len = 20 + Rich_ptr.chain_len l4chain in
            if total_len > 0xffff then fail ()
            else begin
              t.ident <- (t.ident + 1) land 0xffff;
              let hdr_len = 14 + 20 + l4hdr_len in
              match Pool.alloc t.hdr_pool ~len:hdr_len with
              | exception Pool.Pool_exhausted -> fail ()
              | hdr_ptr ->
                  let hdr = Bytes.create hdr_len in
                  Ethernet.encode_header
                    { Ethernet.dst = dst_mac; src = ifc.cfg.mac; ethertype = Ethernet.Ipv4 }
                    hdr ~off:0;
                  Ipv4.encode_header
                    {
                      Ipv4.src;
                      dst;
                      protocol = proto;
                      ttl = 64;
                      ident = t.ident;
                      total_len;
                    }
                    hdr ~off:14;
                  Bytes.blit l4hdr 0 hdr 34 l4hdr_len;
                  Pool.write t.hdr_pool hdr_ptr ~src:hdr ~src_off:0;
                  free_local [ l4hdr_ptr ];
                  let chain = hdr_ptr :: payload_chunks in
                  (* The filter classifies on the IP + L4 header bytes. *)
                  let pkt = Bytes.sub hdr 14 (20 + l4hdr_len) in
                  let pending =
                    Pf_out { origin; chain; iface = i; hdr = hdr_ptr; tso; pkt }
                  in
                  if t.pf = None then
                    transmit_frame t ~iface:i ~origin ~hdr:hdr_ptr ~chain ~tso
                  else to_filter t pending
            end)
        in
        match
          Arp.Cache.resolve ifc.arp next_hop ~on_ready:(fun mac ->
              Proc.exec t.proc ~cost:(costs t).Costs.ip_tx_work (fun () -> continue mac))
        with
        | `Hit mac -> continue mac
        | `Wait ->
            (* First waiter sends the ARP request. *)
            let req = Arp.Cache.request_for ifc.arp next_hop in
            let arp_bytes = Arp.encode req in
            let frame = Bytes.create (14 + Arp.packet_size) in
            Ethernet.encode_header
              { Ethernet.dst = Addr.Mac.broadcast; src = ifc.cfg.mac; ethertype = Ethernet.Arp }
              frame ~off:0;
            Bytes.blit arp_bytes 0 frame 14 Arp.packet_size;
            (match Pool.alloc t.hdr_pool ~len:(Bytes.length frame) with
            | exception Pool.Pool_exhausted -> ()
            | ptr ->
                Pool.write t.hdr_pool ptr ~src:frame ~src_off:0;
                transmit_frame t ~iface:i ~origin:Local ~hdr:ptr ~chain:[ ptr ] ~tso:false)
        | `Dropped -> fail ())

(* {2 Receive path} *)

let deliver t ~fanout:fan ~tag ~buf ~l4_off ~l4_len ~src ~dst ~sport ~dport =
  match fan with
  | None -> free_rx t buf
  | Some fan -> (
      let shard =
        if Array.length fan.chans <= 1 then 0
        else fan.steer ~src ~sport ~dst ~dport mod Array.length fan.chans
      in
      match fanout_chan fan shard with
      | None -> free_rx t buf
      | Some chan -> (
          match Pool.sub_ptr buf ~off:l4_off ~len:l4_len with
          | sub ->
              Hashtbl.replace t.held_bufs buf.Rich_ptr.slot (buf, (tag, shard));
              if not (Proc.send t.proc chan (Msg.Rx_deliver { buf = sub; src; dst }))
              then begin
                Hashtbl.remove t.held_bufs buf.Rich_ptr.slot;
                free_rx t buf
              end
          | exception Invalid_argument _ -> free_rx t buf))

let handle_icmp t ~buf ~l4_bytes ~src ~dst =
  (match Icmp.decode l4_bytes with
  | Some msg -> (
      match Icmp.reply_to msg with
      | Some reply ->
          t.icmp_echoes <- t.icmp_echoes + 1;
          let reply_bytes = Icmp.encode reply in
          if Bytes.length reply_bytes <= Pool.slot_size t.hdr_pool then begin
            match Pool.alloc t.hdr_pool ~len:(Bytes.length reply_bytes) with
            | exception Pool.Pool_exhausted -> ()
            | ptr ->
                Pool.write t.hdr_pool ptr ~src:reply_bytes ~src_off:0;
                start_tx t ~origin:Local ~src:dst ~dst:src ~proto:Ipv4.Icmp
                  ~l4chain:[ ptr ] ~tso:false
          end
      | None -> ())
  | None -> Stats.incr (Proc.stats t.proc) "icmp.malformed");
  free_rx t buf

let accept_in t ~buf frame =
  (* The inbound packet at offset 14 of [frame] passed the filter:
     demultiplex it by protocol, in place. *)
  match Ipv4.payload_at frame ~off:Ethernet.header_size with
  | None -> free_rx t buf
  | Some (ih, l4_off, l4_len) ->
      if ih.Ipv4.total_len > Bytes.length frame - Ethernet.header_size then begin
        (* The header claims more bytes than arrived: a truncated or
           forged datagram (the ping-of-death shape). Drop it. *)
        Stats.incr (Proc.stats t.proc) "ip.truncated";
        free_rx t buf
      end
      else if l4_len <= 0 then free_rx t buf
      else begin
        let src = ih.Ipv4.src and dst = ih.Ipv4.dst in
        (* The L4 ports, for shard steering (both TCP and UDP put them
           in the first four header bytes). *)
        let sport, dport =
          if Bytes.length frame >= l4_off + 4 then
            (Bytes.get_uint16_be frame l4_off, Bytes.get_uint16_be frame (l4_off + 2))
          else (0, 0)
        in
        match ih.Ipv4.protocol with
        | Ipv4.Tcp ->
            deliver t ~fanout:t.to_tcp ~tag:`Tcp ~buf ~l4_off ~l4_len ~src ~dst ~sport
              ~dport
        | Ipv4.Udp ->
            deliver t ~fanout:t.to_udp ~tag:`Udp ~buf ~l4_off ~l4_len ~src ~dst ~sport
              ~dport
        | Ipv4.Icmp ->
            handle_icmp t ~buf ~l4_bytes:(Bytes.sub frame l4_off l4_len) ~src ~dst
        | Ipv4.Unknown _ -> free_rx t buf
      end

(* Under a packet filter an inbound IPv4 frame is not read whole on
   arrival: a peek at its Ethernet header, then one blit of the first
   40 bytes of the packet, which is all the filter matches on. The
   frame is read once it has passed. *)
let filtered_ipv4 t buf ~len =
  t.pf <> None
  && len >= Ethernet.header_size
  && begin
       Pool.blit t.rx_pool
         { buf with Rich_ptr.len = Ethernet.header_size }
         ~dst:t.eth_hdr ~dst_off:0;
       match Ethernet.decode_header t.eth_hdr ~off:0 with
       | Some { Ethernet.ethertype = Ethernet.Ipv4; _ } -> true
       | Some _ | None -> false
     end

(* A received frame read whole: ARP, an IPv4 packet no filter screens,
   or anything else. *)
let handle_frame t ~arrival ~buf frame =
  match Ethernet.decode_header frame ~off:0 with
  | None -> free_rx t buf
  | Some eh -> (
      match eh.Ethernet.ethertype with
      | Ethernet.Arp -> (
          free_rx t buf;
          match Arp.decode (Bytes.sub frame 14 (Bytes.length frame - 14)) with
          | None -> ()
          | Some arp_pkt ->
              (* Learn on the arrival interface; answer for any of
                 our addresses, on the arrival interface with its
                 MAC (weak host model — the multihomed host is one
                 node, not a router). *)
              let ifc = iface t arrival in
              let owns_target =
                List.exists
                  (fun other -> Addr.Ipv4.equal arp_pkt.Arp.target_ip other.cfg.addr)
                  t.ifaces
              in
              let cache_view =
                (* Answer with the arrival interface's identity. *)
                if owns_target && arp_pkt.Arp.op = Arp.Request then
                  Some
                    {
                      Arp.op = Arp.Reply;
                      sender_mac = ifc.cfg.mac;
                      sender_ip = arp_pkt.Arp.target_ip;
                      target_mac = arp_pkt.Arp.sender_mac;
                      target_ip = arp_pkt.Arp.sender_ip;
                    }
                else None
              in
              ignore (Arp.Cache.input ifc.arp arp_pkt);
              (* A mapping learned from the wire is worth sharing:
                 replicated IP servers broadcast it so the sibling
                 caches converge without extra ARP traffic. *)
              (match t.arp_announce with
              | Some f ->
                  f ~iface:arrival arp_pkt.Arp.sender_ip arp_pkt.Arp.sender_mac
              | None -> ());
              (match cache_view with
              | Some reply ->
                  let rb = Arp.encode reply in
                  let f = Bytes.create (14 + Arp.packet_size) in
                  Ethernet.encode_header
                    {
                      Ethernet.dst = arp_pkt.Arp.sender_mac;
                      src = ifc.cfg.mac;
                      ethertype = Ethernet.Arp;
                    }
                    f ~off:0;
                  Bytes.blit rb 0 f 14 Arp.packet_size;
                  (match Pool.alloc t.hdr_pool ~len:(Bytes.length f) with
                  | exception Pool.Pool_exhausted -> ()
                  | ptr ->
                      Pool.write t.hdr_pool ptr ~src:f ~src_off:0;
                      transmit_frame t ~iface:arrival ~origin:Local ~hdr:ptr
                        ~chain:[ ptr ] ~tso:false)
              | None -> ()))
      | Ethernet.Ipv4 ->
          (* Only without a filter: under one, an IPv4 frame is not
             read whole on arrival (see [filtered_ipv4]). *)
          accept_in t ~buf frame
      | Ethernet.Unknown _ -> free_rx t buf)

let handle_rx_frame t ~iface:arrival ~buf ~len =
  match filtered_ipv4 t buf ~len with
  | exception Pool.Stale_pointer _ -> ()
  | true ->
      let hdr = Ethernet.header_size in
      let pkt = Bytes.create (min (len - hdr) 40) in
      let excerpt = { buf with Rich_ptr.off = buf.Rich_ptr.off + hdr; len = Bytes.length pkt } in
      Pool.blit t.rx_pool excerpt ~dst:pkt ~dst_off:0;
      to_filter t (Pf_in { buf = { buf with Rich_ptr.len }; pkt })
  | false -> (
      match Pool.read t.rx_pool { buf with Rich_ptr.len } with
      | exception Pool.Stale_pointer _ -> ()
      | frame -> handle_frame t ~arrival ~buf frame)

(* {2 Message handlers} *)

let complete_drv_confirm t id ok =
  match Component.Db.complete t.db id with
  | Some (Drv { origin; hdr; _ }) ->
      free_hdr t hdr;
      confirm_origin t origin ok
  | Some (Pf_out _ | Pf_in _) | None ->
      Stats.incr (Proc.stats t.proc) "stale_confirm"

(* Release the whole receive-pool frame backing [buf] (a sub-pointer a
   transport was handed and is now done with). *)
let release_held t (buf : Rich_ptr.t) =
  match Hashtbl.find_opt t.held_bufs buf.slot with
  | Some (b, _) when b.Rich_ptr.pool = buf.pool && b.Rich_ptr.gen = buf.gen ->
      Hashtbl.remove t.held_bufs buf.slot;
      free_rx t b
  | Some _ | None ->
      (* Unknown buffer — a stale free from before our restart, or from
         an earlier owner of a slot since freed and reallocated. *)
      ()

(* [source] identifies which channel a message arrived on — each
   interface and each transport shard has its own, so received frames
   know their port and transport requests know their shard. *)
let handle_msg t ~source msg =
  let c = costs t in
  match msg with
  | Msg.Tx_ip { id; chain; src; dst; proto; tso } ->
      ( c.Costs.ip_tx_work + c.Costs.header_adjust + marshal_cost t,
        fun () ->
          let shard =
            match source with Src_transport (_, s) -> s | Src_iface _ | Src_other -> 0
          in
          let origin =
            match proto with
            | Ipv4.Udp -> From_udp { shard; id }
            | Ipv4.Tcp | Ipv4.Icmp | Ipv4.Unknown _ -> From_tcp { shard; id }
          in
          start_tx t ~origin ~src ~dst ~proto ~l4chain:chain ~tso )
  | Msg.Filter_verdict { id; pass } -> (
      ( marshal_cost t,
        fun () ->
          match Component.Db.complete t.db id with
          | Some (Pf_out { origin; chain; iface; hdr; tso; _ }) ->
              if pass then transmit_frame t ~iface ~origin ~hdr ~chain ~tso
              else begin
                free_hdr t hdr;
                confirm_origin t origin false
              end
          | Some (Pf_in { buf; _ }) ->
              if pass then begin
                match Pool.read t.rx_pool buf with
                | exception Pool.Stale_pointer _ -> ()
                | frame -> accept_in t ~buf frame
              end
              else free_rx t buf
          | Some (Drv _) | None ->
              (* Stale verdict from before a crash: ignore. *)
              Stats.incr (Proc.stats t.proc) "stale_verdict" ))
  | Msg.Drv_tx_confirm { ids; ok } ->
      (* The channel cost is paid once per message (a batching driver's
         amortization), the per-completion bookkeeping once per id. *)
      ( marshal_cost t,
        fun () -> List.iter (fun id -> complete_drv_confirm t id ok) ids )
  | Msg.Rx_frame { buf; len } ->
      ( c.Costs.ip_rx_work + marshal_cost t,
        fun () ->
          let rx_iface =
            match source with Src_iface i -> i | Src_transport _ | Src_other -> 0
          in
          handle_rx_frame t ~iface:rx_iface ~buf ~len )
  | Msg.Rx_done { buf } ->
      ( 0,
        fun () ->
          (* The transport is done with the whole frame buffer that
             backs the sub-pointer it was given. In a replicated
             deployment the frame may belong to a sibling replica's
             pool (a transport shard talks to one fixed replica, but
             its flows' frames arrive via whichever replica owns the
             queue) — hand those across instead of leaking them. *)
          if buf.Rich_ptr.pool <> Pool.id t.rx_pool then (
            match t.buf_return with Some f -> f buf | None -> ())
          else release_held t buf )
  | Msg.Tx_ip_confirm _ | Msg.Filter_req _ | Msg.Drv_tx _ | Msg.Rx_deliver _
  | Msg.Sock_req _ | Msg.Sock_reply _ | Msg.Sock_event _ ->
      (0, fun () -> Stats.incr (Proc.stats t.proc) "invalid_msg")

(* {2 Construction and wiring} *)

let grant_pool_to t hooks =
  (* The driver (and through it the DMA engine) now writes into our
     receive pool by design — tell the sanitizer this pool is granted,
     so those foreign writes are not ownership violations. *)
  Hook.emit (Hook.Pool_grant { pool = Pool.id t.rx_pool });
  hooks.drv_grant_rx_pool
    ~alloc:(fun () ->
      match Pool.alloc t.rx_pool ~len:(Pool.slot_size t.rx_pool) with
      | ptr -> Some ptr
      | exception Pool.Pool_exhausted -> None)
    ~write:(fun ptr frame ->
      let narrowed = { ptr with Rich_ptr.len = Bytes.length frame } in
      try Pool.write t.rx_pool narrowed ~src:frame ~src_off:0
      with Pool.Stale_pointer _ -> ())

let persist_routes t =
  t.save "routes" (Marshal.to_string (Ipv4.Route.entries t.route_table) [])

let load_routes t =
  Ipv4.Route.clear t.route_table;
  match t.load "routes" with
  | Some blob ->
      let entries : Ipv4.Route.entry list = Marshal.from_string blob 0 in
      List.iter (Ipv4.Route.add t.route_table) entries
  | None -> ()

let create comp ~registry ~save ~load () =
  let rx_pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:4096 ~slot_size:2048 in
  let hdr_pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:8192 ~slot_size:2048 in
  Registry.register registry rx_pool;
  Registry.register registry hdr_pool;
  Component.register_pool comp rx_pool;
  Component.register_pool comp hdr_pool;
  let rec t =
    {
      comp;
      proc = Component.proc comp;
      registry;
      save;
      load;
      ifaces = [];
      rx_pool;
      hdr_pool;
      db = Component.create_db comp;
      route_table = Ipv4.Route.create ();
      pf = None;
      to_tcp = None;
      to_udp = None;
      held_bufs = Hashtbl.create 128;
      resubmit_pf = [];
      resubmit_drv = [];
      hold_for_pf = (fun _ p -> t.resubmit_pf <- p :: t.resubmit_pf);
      hold_for_drv = (fun _ p -> t.resubmit_drv <- p :: t.resubmit_drv);
      ident = 0;
      packets_forwarded = 0;
      icmp_echoes = 0;
      local_queue = 0;
      arp_announce = None;
      buf_return = None;
      eth_hdr = Bytes.create Ethernet.header_size;
    }
  in
  Component.on_crash comp (fun () ->
      (* Our pools die with us (the generic lifecycle frees them):
         every rich pointer anyone still holds goes stale, and the
         devices must not DMA into them anymore — warn the drivers. *)
      Hashtbl.reset t.held_bufs;
      t.resubmit_pf <- [];
      t.resubmit_drv <- [];
      List.iter (fun ifc -> ifc.drv.drv_on_ip_crash ()) t.ifaces);
  Component.on_restart comp ~step:"load-routes" (fun ~fresh:_ ->
      (* Recover configuration from the storage server; ARP and ICMP
         are stateless, so the caches restart cold. *)
      load_routes t;
      List.iter (fun ifc -> Arp.Cache.flush ifc.arp) t.ifaces);
  Component.on_restart comp ~step:"reset-drivers" (fun ~fresh:_ ->
      (* The drivers reset their devices (Section V-D) and get the new
         receive pool. *)
      List.iter
        (fun ifc ->
          ifc.drv.drv_on_ip_restart ();
          grant_pool_to t ifc.drv)
        t.ifaces);
  t

let consume ?(source = Src_other) t chan =
  Component.consume t.comp chan (handle_msg t ~source)

let set_local_queue t q = t.local_queue <- q
let set_arp_announce t f = t.arp_announce <- Some f
let set_buf_return t f = t.buf_return <- Some f

let add_iface t cfg ~hooks ~tx_chan ~rx_chan =
  let i = iface_count t in
  let ifc =
    {
      cfg;
      drv = hooks;
      tx = tx_chan;
      arp = Arp.Cache.create ~my_mac:cfg.mac ~my_ip:cfg.addr ();
      drv_up = true;
    }
  in
  t.ifaces <- t.ifaces @ [ ifc ];
  Component.produce t.comp tx_chan;
  consume ~source:(Src_iface i) t rx_chan;
  hooks.drv_connect ~rx_from_ip:tx_chan ~tx_to_ip:rx_chan;
  grant_pool_to t hooks;
  i

let connect_pf_sharded t ~steer ~pairs =
  t.pf <-
    Some
      {
        pf_chans = Array.map fst pairs;
        pf_steer = steer;
        pf_up = Array.make (Array.length pairs) true;
      };
  Array.iter
    (fun (to_pf, from_pf) ->
      Component.produce t.comp to_pf;
      consume t from_pf)
    pairs

let connect_transport_sharded ?(mine = fun _ -> true) t ~proto ~steer ~pairs =
  let fan = { chans = Array.map snd pairs; steer } in
  (match proto with
  | `Tcp -> t.to_tcp <- Some fan
  | `Udp -> t.to_udp <- Some fan);
  (* A replica consumes only its own shards' request channels ([mine])
     but keeps the full fan-out array: received frames steer by flow
     hash across ALL shards, exactly like the RSS table does. The
     non-[mine] reply channels are therefore shared producer endpoints
     — every replica may deliver into any shard. *)
  Array.iteri
    (fun i (from_transport, to_transport) ->
      Component.produce t.comp ~shared:(not (mine i)) to_transport;
      if mine i then consume ~source:(Src_transport (proto, i)) t from_transport)
    pairs

let add_route t ~prefix ~bits ~iface ~gateway =
  Ipv4.Route.add t.route_table { Ipv4.Route.prefix; bits; iface; gateway };
  persist_routes t

let add_neighbor t ~iface:i addr mac = Arp.Cache.insert (iface t i).arp addr mac

let arp_lookup t ~iface:i addr = Arp.Cache.lookup (iface t i).arp addr

let clear_routes t = Ipv4.Route.clear t.route_table

let src_addr_for t dst =
  match Ipv4.Route.lookup t.route_table dst with
  | Some route when route.Ipv4.Route.iface < iface_count t ->
      Some (iface t route.Ipv4.Route.iface).cfg.addr
  | Some _ | None -> None

(* {2 Recovery} *)

let resubmit_pf_all t =
  let pendings = List.rev t.resubmit_pf in
  t.resubmit_pf <- [];
  (* Re-steered through [to_filter]: packets whose shard is still down
     simply land back on the hold list. *)
  List.iter
    (fun p -> match p with Pf_out _ | Pf_in _ -> to_filter t p | Drv _ -> ())
    pendings

let repersist t = persist_routes t

let on_pf_crash t ~shard:j =
  match t.pf with
  | None -> ()
  | Some pf ->
      pf.pf_up.(j) <- false;
      ignore (Component.Db.abort_peer t.db ~peer:(pf_peer j))

let on_pf_restart t ~shard:j =
  match t.pf with
  | None -> ()
  | Some pf ->
      pf.pf_up.(j) <- true;
      Proc.exec t.proc ~cost:(costs t).Costs.ip_tx_work (fun () -> resubmit_pf_all t)

let on_drv_crash t ~iface:i =
  (iface t i).drv_up <- false;
  ignore (Component.Db.abort_peer t.db ~peer:(drv_peer i))

let on_drv_restart t ~iface:i =
  (iface t i).drv_up <- true;
  let pendings = List.rev t.resubmit_drv in
  t.resubmit_drv <- [];
  (* "In case of doubt, we prefer to send a few duplicates": every
     unconfirmed packet is resubmitted (Section V-D). *)
  Proc.exec t.proc ~cost:(costs t).Costs.ip_tx_work (fun () ->
      List.iter
        (fun p ->
          match p with
          | Drv { origin; hdr; chain; iface; tso } ->
              if Registry.chain_live t.registry chain then
                transmit_frame t ~iface ~origin ~hdr ~chain ~tso
              else confirm_origin t origin false
          | Pf_out _ | Pf_in _ -> ())
        pendings)

let free_held t ~keep =
  let doomed =
    Hashtbl.fold
      (fun slot (b, owner) acc -> if not (keep owner) then (slot, b) :: acc else acc)
      t.held_bufs []
  in
  List.iter
    (fun (slot, b) ->
      Hashtbl.remove t.held_bufs slot;
      free_rx t b)
    doomed

let on_transport_shard_crash t ~proto ~shard =
  (* Only the crashed shard's buffers die; the other shards' flows keep
     their receive buffers — the isolation the scaling story needs. *)
  let tag = match proto with `Tcp -> `Tcp | `Udp -> `Udp in
  free_held t ~keep:(fun (owner, s) -> owner <> tag || s <> shard)
