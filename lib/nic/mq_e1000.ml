module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Registry = Newt_channels.Registry
module Rich_ptr = Newt_channels.Rich_ptr
module Addr = Newt_net.Addr
module Ethernet = Newt_net.Ethernet
module Ipv4 = Newt_net.Ipv4

type tx_desc = {
  chain : Rich_ptr.chain;
  csum_offload : bool;
  tso : bool;
  tso_mss : int;
  tx_cookie : int;
}

type rx_desc = { buf : Rich_ptr.t; rx_cookie : int }
type rx_completion = { rx_buf : Rich_ptr.t; len : int; cookie : int }
type irq_reason = Rx_done of int | Tx_done of int | Link_change

let dummy_tx =
  { chain = []; csum_offload = false; tso = false; tso_mss = 0; tx_cookie = -1 }

let dummy_rx =
  { buf = { Rich_ptr.pool = -1; slot = -1; off = 0; len = 0; gen = -1 }; rx_cookie = -1 }

type queue = {
  tx_ring : tx_desc Ring.t;
  rx_ring : rx_desc Ring.t;
  rx_lens : int Queue.t;  (* frame lengths, in completion order *)
  mutable tx_active : bool;
  mutable q_rx_packets : int;
  mutable q_unsafe : bool;  (* DMA fenced off for just this queue *)
}

type t = {
  engine : Engine.t;
  registry : Registry.t;
  link : Link.t;
  side : Link.side;
  mac : Addr.Mac.t;
  rss : Rss.t;
  qs : queue array;
  reset_time : Time.cycles;
  mutable irq_handler : irq_reason -> unit;
  mutable rx_writer : (Rich_ptr.t -> Bytes.t -> unit) option;
  mutable irq_scheduled : bool;
  mutable pending_irqs : irq_reason list;
  mutable unsafe : bool;
  mutable misconfigured : bool;
  mutable link_admin_up : bool;
  (* Flow -> queue journal: the NIC half of the affinity invariant. *)
  flow_queues : (int * int * int * int, int) Hashtbl.t;
  mutable violations : int;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable rx_no_buffer : int;
}

(* Descriptors per ring, and the interrupt moderation delay. *)
let ring_size = 256
let irq_delay = Time.of_micros 10.0

let raise_irq t reason =
  if not (List.mem reason t.pending_irqs) then
    t.pending_irqs <- reason :: t.pending_irqs;
  if not t.irq_scheduled then begin
    t.irq_scheduled <- true;
    ignore
      (Engine.schedule t.engine irq_delay (fun () ->
           t.irq_scheduled <- false;
           let irqs = List.rev t.pending_irqs in
           t.pending_irqs <- [];
           List.iter t.irq_handler irqs))
  end

(* Parse just enough of the frame to steer it: Ethernet, IPv4, and for
   TCP/UDP the first four L4 bytes (the ports). Everything else is
   "default queue" traffic. *)
let classify frame =
  match Ethernet.decode_header frame ~off:0 with
  | Some { Ethernet.ethertype = Ethernet.Ipv4; _ } -> (
      match Ipv4.decode_header frame ~off:14 with
      | Some ih when Bytes.length frame >= 14 + 20 + 4 -> (
          match ih.Ipv4.protocol with
          | Ipv4.Tcp | Ipv4.Udp ->
              let sport = Bytes.get_uint16_be frame (14 + 20) in
              let dport = Bytes.get_uint16_be frame (14 + 22) in
              Some (ih.Ipv4.src, sport, ih.Ipv4.dst, dport)
          | Ipv4.Icmp | Ipv4.Unknown _ -> None)
      | Some _ | None -> None)
  | Some _ | None -> None

let ip_int a = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFFFFFF

(* The same canonical key the RSS hash uses, so one flow = one entry. *)
let flow_key (src, sport, dst, dport) =
  let a = (ip_int src, sport) and b = (ip_int dst, dport) in
  let (i1, p1), (i2, p2) = if a <= b then (a, b) else (b, a) in
  (i1, p1, i2, p2)

(* With one queue every frame lands on queue 0 and no flow can move, so
   the frame is neither parsed nor journalled. *)
let steer t frame =
  if Array.length t.qs = 1 then 0
  else
    match classify frame with
    | None -> 0
    | Some ((src, sport, dst, dport) as tuple) ->
        let q = Rss.queue_of t.rss ~src ~sport ~dst ~dport in
        let key = flow_key tuple in
        (match Hashtbl.find_opt t.flow_queues key with
        | None -> Hashtbl.replace t.flow_queues key q
        | Some q' when q' = q -> ()
        | Some _ ->
            t.violations <- t.violations + 1;
            Hashtbl.replace t.flow_queues key q);
        q

let on_rx t frame =
  if (not t.unsafe) && not t.misconfigured then begin
    let qi = steer t frame in
    let q = t.qs.(qi) in
    if q.q_unsafe then t.rx_no_buffer <- t.rx_no_buffer + 1
    else
    match Ring.device_take q.rx_ring with
    | None -> t.rx_no_buffer <- t.rx_no_buffer + 1
    | Some desc -> (
        match t.rx_writer with
        | None -> t.rx_no_buffer <- t.rx_no_buffer + 1
        | Some write ->
            write desc.buf frame;
            Queue.push (Bytes.length frame) q.rx_lens;
            t.rx_packets <- t.rx_packets + 1;
            q.q_rx_packets <- q.q_rx_packets + 1;
            Ring.device_complete q.rx_ring;
            raise_irq t (Rx_done qi))
  end

let create engine ~registry ~link ~side ~mac ~rss ?reset_time () =
  let reset_time =
    match reset_time with Some r -> r | None -> Time.of_seconds 1.2
  in
  let mk_queue () =
    {
      tx_ring = Ring.create ~size:ring_size ~dummy:dummy_tx;
      rx_ring = Ring.create ~size:ring_size ~dummy:dummy_rx;
      rx_lens = Queue.create ();
      tx_active = false;
      q_rx_packets = 0;
      q_unsafe = false;
    }
  in
  let t =
    {
      engine;
      registry;
      link;
      side;
      mac;
      rss;
      qs = Array.init (Rss.queues rss) (fun _ -> mk_queue ());
      reset_time;
      irq_handler = (fun _ -> ());
      rx_writer = None;
      irq_scheduled = false;
      pending_irqs = [];
      unsafe = false;
      misconfigured = false;
      link_admin_up = true;
      flow_queues = Hashtbl.create 64;
      violations = 0;
      tx_packets = 0;
      rx_packets = 0;
      rx_no_buffer = 0;
    }
  in
  Link.attach link side (fun frame -> on_rx t frame);
  t

let mac t = t.mac
let queues t = Array.length t.qs
let rss t = t.rss
let set_irq_handler t f = t.irq_handler <- f
let set_rx_writer t f = t.rx_writer <- Some f

(* Per-queue TX pump onto the shared wire. The link refuses a frame
   only while its queue is full, and the pump retries it 2 us later: a
   fixed poll interval, not a frame time (a full-size frame takes 12 us
   at 1 Gbps and 0.3 us at 40 Gbps). *)
let rec tx_pump t qi =
  let q = t.qs.(qi) in
  if t.unsafe || q.q_unsafe || not t.link_admin_up then q.tx_active <- false
  else
    match Ring.device_take q.tx_ring with
    | None -> q.tx_active <- false
    | Some desc ->
        let frames =
          match Registry.gather t.registry desc.chain with
          | frame ->
              if desc.tso then Offload.tso_split frame ~mss:desc.tso_mss
              else begin
                if desc.csum_offload then ignore (Offload.finalize_l4_checksum frame);
                [ frame ]
              end
          | exception (Registry.Unknown_pool _ | Newt_channels.Pool.Stale_pointer _)
            ->
              (* The buffers died under the device (owner crash mid
                 flight): drop the frame, complete the descriptor. *)
              []
        in
        send_frames t qi desc frames

and send_frames t qi desc = function
  | [] ->
      let q = t.qs.(qi) in
      Ring.device_complete q.tx_ring;
      raise_irq t (Tx_done qi);
      tx_pump t qi
  | frame :: rest ->
      if Link.transmit t.link ~from:t.side frame then begin
        t.tx_packets <- t.tx_packets + 1;
        send_frames t qi desc rest
      end
      else if Link.is_up t.link then
        ignore
          (Engine.schedule t.engine (Time.of_micros 2.0) (fun () ->
               send_frames t qi desc (frame :: rest)))
      else send_frames t qi desc rest

let post_tx t ~queue desc = Ring.post t.qs.(queue).tx_ring desc

let doorbell_tx t ~queue =
  let q = t.qs.(queue) in
  if (not q.tx_active) && (not t.unsafe) && (not q.q_unsafe) && t.link_admin_up
  then begin
    q.tx_active <- true;
    tx_pump t queue
  end

let post_rx t ~queue desc = Ring.post t.qs.(queue).rx_ring desc
let reap_tx t ~queue = Ring.reap t.qs.(queue).tx_ring

let reap_rx t ~queue =
  let q = t.qs.(queue) in
  match Ring.reap q.rx_ring with
  | None -> None
  | Some desc ->
      let len =
        match Queue.take_opt q.rx_lens with
        | Some l -> l
        | None -> desc.buf.Rich_ptr.len
      in
      Some { rx_buf = desc.buf; len; cookie = desc.rx_cookie }

let rx_ring_free t ~queue = Ring.free_slots t.qs.(queue).rx_ring
let mark_unsafe t = t.unsafe <- true
let misconfigure t = t.misconfigured <- true
let mark_queue_unsafe t ~queue = t.qs.(queue).q_unsafe <- true

let clear_queue q =
  ignore (Ring.clear q.tx_ring);
  ignore (Ring.clear q.rx_ring);
  Queue.clear q.rx_lens;
  q.tx_active <- false;
  q.q_unsafe <- false

(* Restart-aware per-queue recovery: reprogramming one queue's rings
   needs no link renegotiation, so the other queues keep forwarding
   while a crashed owner reclaims just its slice of the device. *)
let reset_queue t ~queue = clear_queue t.qs.(queue)

let reset t =
  Array.iter clear_queue t.qs;
  Hashtbl.reset t.flow_queues;
  t.unsafe <- false;
  t.misconfigured <- false;
  t.link_admin_up <- false;
  Link.set_up t.link false;
  ignore
    (Engine.schedule t.engine t.reset_time (fun () ->
         t.link_admin_up <- true;
         Link.set_up t.link true;
         raise_irq t Link_change))

let link_up t = t.link_admin_up && Link.is_up t.link
let tx_packets t = t.tx_packets
let rx_packets t = t.rx_packets
let rx_no_buffer t = t.rx_no_buffer
let rx_queue_packets t = Array.map (fun q -> q.q_rx_packets) t.qs
let steering_violations t = t.violations
