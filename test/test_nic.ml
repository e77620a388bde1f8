(* Tests for the NIC substrate: descriptor rings, the link model, the
   offload engines (checksum finalization, TSO splitting — property
   tested against the real decoders), and the e1000 device model: one
   queue with its recovery-relevant reset semantics, several with
   per-queue fences and RSS steering. *)

module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Ring = Newt_nic.Ring
module Link = Newt_nic.Link
module Offload = Newt_nic.Offload
module Mq = Newt_nic.Mq_e1000
module Rss = Newt_nic.Rss
module Pool = Newt_channels.Pool
module Registry = Newt_channels.Registry
module Rich_ptr = Newt_channels.Rich_ptr
module Addr = Newt_net.Addr
module Ethernet = Newt_net.Ethernet
module Ipv4 = Newt_net.Ipv4
module Tcp_wire = Newt_net.Tcp_wire
module Udp = Newt_net.Udp

let ip = Addr.Ipv4.v
let qtest name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

(* {2 Ring} *)

let test_ring_lifecycle () =
  let r = Ring.create ~size:4 ~dummy:(-1) in
  Alcotest.(check int) "all free" 4 (Ring.free_slots r);
  Alcotest.(check bool) "post 1" true (Ring.post r 10);
  Alcotest.(check bool) "post 2" true (Ring.post r 20);
  Alcotest.(check int) "pending" 2 (Ring.pending r);
  Alcotest.(check (option int)) "device takes oldest" (Some 10) (Ring.device_take r);
  Ring.device_complete r;
  Alcotest.(check int) "one completion" 1 (Ring.completed_unreaped r);
  Alcotest.(check (option int)) "reap returns it" (Some 10) (Ring.reap r);
  Alcotest.(check int) "slot freed" 3 (Ring.free_slots r)

let test_ring_full () =
  let r = Ring.create ~size:2 ~dummy:0 in
  Alcotest.(check bool) "1" true (Ring.post r 1);
  Alcotest.(check bool) "2" true (Ring.post r 2);
  Alcotest.(check bool) "full" false (Ring.post r 3);
  ignore (Ring.device_take r);
  (* Taking does not free the slot; only reaping does. *)
  Alcotest.(check bool) "still full" false (Ring.post r 3);
  Ring.device_complete r;
  ignore (Ring.reap r);
  Alcotest.(check bool) "room after reap" true (Ring.post r 3)

let test_ring_clear_returns_leftovers () =
  let r = Ring.create ~size:8 ~dummy:0 in
  List.iter (fun v -> ignore (Ring.post r v)) [ 1; 2; 3 ];
  ignore (Ring.device_take r);
  let leftovers = Ring.clear r in
  Alcotest.(check (list int)) "all unreaped descriptors returned" [ 1; 2; 3 ] leftovers;
  Alcotest.(check int) "empty after clear" 8 (Ring.free_slots r)

let test_ring_wraparound () =
  let r = Ring.create ~size:2 ~dummy:0 in
  for i = 1 to 50 do
    Alcotest.(check bool) "post" true (Ring.post r i);
    Alcotest.(check (option int)) "take" (Some i) (Ring.device_take r);
    Ring.device_complete r;
    Alcotest.(check (option int)) "reap" (Some i) (Ring.reap r)
  done

(* A descriptor the driver has reaped, or that a reset cleared, must
   not keep its payload reachable: a finished TX frame's buffers are
   garbage once reaped, not 256 posts later when the slot is reused. *)
let test_ring_drops_finished_descriptors () =
  let r = Ring.create ~size:8 ~dummy:(ref (-1)) in
  let weak = Weak.create 8 in
  let post_fresh lo hi =
    for i = lo to hi do
      let block = ref i in
      Weak.set weak i (Some block);
      Alcotest.(check bool) "post" true (Ring.post r block)
    done
  in
  let check_collected what lo hi =
    Gc.full_major ();
    for i = lo to hi do
      Alcotest.(check bool)
        (Printf.sprintf "%s: block %d collected" what i)
        false (Weak.check weak i)
    done
  in
  post_fresh 0 4;
  for _ = 0 to 4 do
    ignore (Ring.device_take r);
    Ring.device_complete r;
    ignore (Ring.reap r)
  done;
  check_collected "reaped" 0 4;
  (* One reaped, one taken by the device, one still posted: a reset
     returns the last two and must drop every slot. *)
  post_fresh 5 7;
  for _ = 5 to 6 do
    ignore (Ring.device_take r)
  done;
  Ring.device_complete r;
  ignore (Ring.reap r);
  Alcotest.(check int) "leftovers" 2 (List.length (Ring.clear r));
  check_collected "cleared" 5 7;
  Alcotest.(check int) "ring empty after clear" 8 (Ring.free_slots r)

let test_ring_reap_after_complete_across_wrap () =
  (* Batched take/complete/reap rounds on a tiny ring: completions and
     reaps repeatedly cross the index wrap, and reap order must stay
     the post order throughout. *)
  let r = Ring.create ~size:4 ~dummy:0 in
  let next = ref 0 in
  let posted = Queue.create () in
  for _round = 1 to 10 do
    while Ring.post r !next do
      Queue.push !next posted;
      incr next
    done;
    let rec take_all () =
      match Ring.device_take r with
      | Some _ ->
          Ring.device_complete r;
          take_all ()
      | None -> ()
    in
    take_all ();
    let rec reap_all () =
      match Ring.reap r with
      | Some v ->
          Alcotest.(check int) "FIFO across the wrap" (Queue.pop posted) v;
          reap_all ()
      | None -> ()
    in
    reap_all ()
  done;
  Alcotest.(check int) "everything reaped" 0 (Queue.length posted);
  Alcotest.(check int) "ring empty again" 4 (Ring.free_slots r)

(* {2 RSS} *)

let test_rss_deterministic_and_symmetric () =
  let rss = Newt_nic.Rss.create ~queues:4 () in
  let rss' = Newt_nic.Rss.create ~queues:4 () in
  for sport = 49152 to 49152 + 127 do
    let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
    let q = Newt_nic.Rss.queue_of rss ~src ~sport ~dst ~dport:80 in
    Alcotest.(check int) "deterministic per seed" q
      (Newt_nic.Rss.queue_of rss' ~src ~sport ~dst ~dport:80);
    Alcotest.(check int) "symmetric" q
      (Newt_nic.Rss.queue_of rss ~src:dst ~sport:80 ~dst:src ~dport:sport);
    Alcotest.(check bool) "in range" true (q >= 0 && q < 4)
  done

let test_rss_indirection_table () =
  let rss = Newt_nic.Rss.create ~queues:4 ~buckets:8 () in
  Alcotest.(check int) "bucket count" 8 (Array.length (Newt_nic.Rss.table rss));
  (* Point every bucket at queue 2: all flows must follow. *)
  Newt_nic.Rss.set_table rss (Array.make 8 2);
  for sport = 49152 to 49152 + 31 do
    Alcotest.(check int) "table redirects all flows" 2
      (Newt_nic.Rss.queue_of rss ~src:(ip 10 0 0 1) ~sport ~dst:(ip 10 0 0 2)
         ~dport:80)
  done;
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "wrong length rejected" true
    (rejects (fun () -> Newt_nic.Rss.set_table rss [| 0; 1 |]));
  Alcotest.(check bool) "out-of-range queue rejected" true
    (rejects (fun () -> Newt_nic.Rss.set_table rss (Array.make 8 7)));
  Alcotest.(check bool) "set_bucket validates too" true
    (rejects (fun () -> Newt_nic.Rss.set_bucket rss ~bucket:0 ~queue:9))

(* The bitwise Toeplitz hash, bit by bit as the RSS spec states it:
   the oracle the table-driven [Rss.hash] must equal. The key stream is
   the one [Rss.create] derives from its seed. *)
let reference_rss_hash ~seed ~src ~sport ~dst ~dport =
  let s = ref (0x9E3779B9 lxor ((seed + 1) * 0x01000193)) in
  let key =
    Array.init 16 (fun _ ->
        let x = !s in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) in
        s := x land 0x3FFFFFFFFFFFFFF;
        !s land 0xff)
  in
  let ip_int a = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFFFFFF in
  let a = (ip_int src, sport land 0xffff) and b = (ip_int dst, dport land 0xffff) in
  let (ip1, p1), (ip2, p2) = if a <= b then (a, b) else (b, a) in
  let input = Array.make 12 0 in
  let put off len v =
    for k = 0 to len - 1 do
      input.(off + k) <- (v lsr (8 * (len - 1 - k))) land 0xff
    done
  in
  put 0 4 ip1;
  put 4 4 ip2;
  put 8 2 p1;
  put 10 2 p2;
  let key_bit j = (key.(j / 8) lsr (7 - (j mod 8))) land 1 in
  let window = ref 0 in
  for j = 0 to 31 do
    window := (!window lsl 1) lor key_bit j
  done;
  let result = ref 0 in
  for i = 0 to 95 do
    if (input.(i / 8) lsr (7 - (i mod 8))) land 1 = 1 then result := !result lxor !window;
    window := ((!window lsl 1) land 0xFFFFFFFF) lor key_bit (i + 32)
  done;
  !result

let test_rss_matches_reference =
  let addr = QCheck2.Gen.(map Addr.Ipv4.of_int32 int32) in
  let port = QCheck2.Gen.(oneof [ int_range 0 65535; int_range (-200_000) 200_000 ]) in
  qtest "rss table hash equals the bitwise Toeplitz hash"
    QCheck2.Gen.(tup4 (int_range 0 0xFFFFFF) (tup2 addr port) (tup2 addr port) bool)
    (fun (seed, (src, sport), (dst, dport), same_addr) ->
      let dst = if same_addr then src else dst in
      let rss = Newt_nic.Rss.create ~seed ~queues:4 () in
      let expected = reference_rss_hash ~seed ~src ~sport ~dst ~dport in
      Newt_nic.Rss.hash rss ~src ~sport ~dst ~dport = expected
      && Newt_nic.Rss.hash rss ~src:dst ~sport:dport ~dst:src ~dport:sport = expected)

(* {2 Link} *)

let test_link_delivers_in_order () =
  let e = Engine.create () in
  let l = Link.create e () in
  let got = ref [] in
  Link.attach l Link.Right (fun frame -> got := Bytes.to_string frame :: !got);
  Alcotest.(check bool) "tx a" true (Link.transmit l ~from:Link.Left (Bytes.of_string "aa"));
  Alcotest.(check bool) "tx b" true (Link.transmit l ~from:Link.Left (Bytes.of_string "bb"));
  Engine.run e;
  Alcotest.(check (list string)) "in order" [ "aa"; "bb" ] (List.rev !got)

let test_link_serialization_time () =
  let e = Engine.create () in
  (* 1 Gbps: 1500 bytes = 12 us on the wire. *)
  let l = Link.create e ~propagation:0 () in
  let arrived = ref 0 in
  Link.attach l Link.Right (fun _ -> arrived := Engine.now e);
  ignore (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  Engine.run e;
  let expected = Time.of_micros 12.0 in
  Alcotest.(check bool)
    (Printf.sprintf "~12us serialization (got %d, expected %d)" !arrived expected)
    true
    (abs (!arrived - expected) < 100)

let test_link_down_drops () =
  let e = Engine.create () in
  let l = Link.create e () in
  let got = ref 0 in
  Link.attach l Link.Right (fun _ -> incr got);
  Link.set_up l false;
  Alcotest.(check bool) "refused" false (Link.transmit l ~from:Link.Left (Bytes.create 64));
  Link.set_up l true;
  Alcotest.(check bool) "accepted" true (Link.transmit l ~from:Link.Left (Bytes.create 64));
  Engine.run e;
  Alcotest.(check int) "one delivered" 1 !got;
  Alcotest.(check int) "one dropped" 1 (Link.dropped l)

let test_link_down_flushes_in_flight () =
  let e = Engine.create () in
  let l = Link.create e () in
  let got = ref 0 in
  Link.attach l Link.Right (fun _ -> incr got);
  ignore (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  (* Take the link down before the frame lands. *)
  ignore (Engine.schedule e 100 (fun () -> Link.set_up l false));
  Engine.run e;
  Alcotest.(check int) "in-flight frame lost" 0 !got

let test_link_down_frees_queue () =
  (* Going down flushes the transmit queue at once: a link that comes
     back up before the flushed frames would have landed accepts
     frames again, and no stale delivery is left in the engine. *)
  let e = Engine.create () in
  let l = Link.create e ~queue_frames:2 () in
  let got = ref 0 in
  Link.attach l Link.Right (fun _ -> incr got);
  Alcotest.(check bool) "1" true (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  Alcotest.(check bool) "2" true (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  let accepted = ref false in
  ignore (Engine.schedule_at e 100 (fun () -> Link.set_up l false) : Engine.handle);
  ignore (Engine.schedule_at e 200 (fun () -> Link.set_up l true) : Engine.handle);
  ignore
    (Engine.schedule_at e 300 (fun () ->
         accepted := Link.transmit l ~from:Link.Left (Bytes.create 64))
      : Engine.handle);
  Engine.run ~until:300 e;
  Alcotest.(check bool) "queue free after the link came back up" true !accepted;
  Alcotest.(check int) "flushed frames counted" 2 (Link.dropped l);
  Alcotest.(check int) "only the new frame is pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "only the new frame delivered" 1 !got

(* The link's frame buffers are reused, so what it takes in must be
   copied and what a tap gets must be the tap's own: the sender and a
   tap overwrite every frame they touch. The receiver's frame is lent
   for its callback, so it keeps a copy of every frame it is handed,
   which must equal what was sent. A random stream of frames, each stamped
   with its number, with the link taken down and up mid-stream: the
   receiver gets the accepted frames minus those the link flushed,
   intact and in order, [dropped] counts the refused and flushed ones,
   and the ring never holds more than [queue_frames] buffers. *)
type link_op = Tx of int | Down | Up

let gen_link_script =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (12, map (fun len -> Tx len) (int_range 42 1514)); (1, pure Down); (1, pure Up) ]
  in
  (* Gaps of 0 send bursts that queue up; 12 us is one full frame. *)
  let gap = oneof [ pure 0; int_range 0 (Time.of_micros 15.0) ] in
  pair (int_range 1 40) (list_size (int_range 1 300) (pair gap op))

let link_ring_keeps_the_stream (queue_frames, script) =
  let e = Engine.create () in
  let l = Link.create e ~queue_frames () in
  (* [waiting]: accepted, not yet delivered or flushed, in order. *)
  let sent = ref [] and waiting = Queue.create () and flushed = ref [] in
  let got = ref [] and refused = ref 0 and slots_ok = ref true in
  Link.tap l (fun ~at:_ ~dir:_ frame -> Bytes.fill frame 0 (Bytes.length frame) '\xff');
  Link.attach l Link.Right (fun frame ->
      got := Bytes.copy frame :: !got;
      ignore (Queue.take_opt waiting : string option));
  let step n op =
    (match op with
    | Tx len ->
        let frame = Bytes.init len (fun i -> Char.chr ((n + i) land 0xff)) in
        Bytes.set_int32_be frame 0 (Int32.of_int n);
        let s = Bytes.to_string frame in
        if Link.transmit l ~from:Link.Left frame then begin
          Bytes.fill frame 0 len '\x00';
          sent := s :: !sent;
          Queue.push s waiting
        end
        else incr refused
    | Down ->
        if Link.is_up l then Queue.iter (fun s -> flushed := s :: !flushed) waiting;
        Queue.clear waiting;
        Link.set_up l false
    | Up -> Link.set_up l true);
    slots_ok := !slots_ok && Link.ring_slots l ~from:Link.Left <= queue_frames
  in
  ignore
    (List.fold_left
       (fun (at, n) (gap, op) ->
         let at = at + gap in
         ignore (Engine.schedule_at e at (fun () -> step n op) : Engine.handle);
         (at, n + 1))
       (0, 0) script
      : int * int);
  Engine.run e;
  let survivors = List.filter (fun s -> not (List.mem s !flushed)) (List.rev !sent) in
  List.rev_map Bytes.to_string !got = survivors
  && Link.dropped l = !refused + List.length !flushed
  && !slots_ok

let test_link_ring_keeps_the_stream =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"link ring delivers the stream minus flushed frames"
       gen_link_script link_ring_keeps_the_stream)

let test_link_queue_overflow () =
  let e = Engine.create () in
  let l = Link.create e ~queue_frames:2 () in
  Link.attach l Link.Right (fun _ -> ());
  Alcotest.(check bool) "1" true (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  Alcotest.(check bool) "2" true (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  Alcotest.(check bool) "3 overflows" false (Link.transmit l ~from:Link.Left (Bytes.create 1500));
  Engine.run e;
  Alcotest.(check int) "both directions counted" 1 (Link.dropped l)

let test_link_full_duplex () =
  let e = Engine.create () in
  let l = Link.create e () in
  let left = ref 0 and right = ref 0 in
  Link.attach l Link.Left (fun _ -> incr left);
  Link.attach l Link.Right (fun _ -> incr right);
  ignore (Link.transmit l ~from:Link.Left (Bytes.create 100));
  ignore (Link.transmit l ~from:Link.Right (Bytes.create 100));
  Engine.run e;
  Alcotest.(check int) "right got left's frame" 1 !right;
  Alcotest.(check int) "left got right's frame" 1 !left

(* {2 Offload engines} *)

let make_tcp_frame ?(payload_len = 100) ?(partial = true) () =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let hdr =
    {
      Tcp_wire.src_port = 5001;
      dst_port = 80;
      seq = 1_000_000;
      ack = 777;
      flags = { Tcp_wire.flag_ack with Tcp_wire.psh = true };
      window = 8192;
      mss = None;
      wscale = None;
    }
  in
  let payload = Bytes.init payload_len (fun i -> Char.chr (i land 0xff)) in
  let seg = Tcp_wire.encode ~src ~dst ~partial_csum:partial hdr ~payload in
  let pkt =
    Ipv4.packet
      { Ipv4.src; dst; protocol = Ipv4.Tcp; ttl = 64; ident = 42; total_len = 0 }
      ~payload:seg
  in
  let frame =
    Ethernet.frame
      { Ethernet.dst = Addr.Mac.of_index 2; src = Addr.Mac.of_index 1; ethertype = Ethernet.Ipv4 }
      ~payload:pkt
  in
  (frame, src, dst, hdr, payload)

let test_offload_finalizes_tcp_csum () =
  let frame, src, dst, _, payload = make_tcp_frame () in
  Alcotest.(check bool) "finalized" true (Offload.finalize_l4_checksum frame);
  (* Validate with the real decoder, like the receiving host will. *)
  match Ethernet.payload frame with
  | Some pkt -> (
      match Ipv4.payload pkt with
      | Some (_, l4) -> (
          match Tcp_wire.decode ~src ~dst l4 with
          | Some (_, p) ->
              Alcotest.(check bytes) "payload intact after offload" payload p
          | None -> Alcotest.fail "checksum invalid after finalize")
      | None -> Alcotest.fail "bad ip")
  | None -> Alcotest.fail "bad eth"

let test_offload_rejects_non_ip () =
  let frame = Bytes.create 64 in
  Alcotest.(check bool) "arp-ish frame not offloadable" false
    (Offload.finalize_l4_checksum frame)

let test_tso_split_validates =
  qtest "TSO split yields decodable, in-order segments"
    QCheck2.Gen.(tup2 (int_range 1 8000) (int_range 536 1460))
    (fun (payload_len, mss) ->
      let frame, src, dst, hdr, payload = make_tcp_frame ~payload_len () in
      let pieces = Offload.tso_split frame ~mss in
      (* Reassemble through real decoders. *)
      let buf = Buffer.create payload_len in
      let expected_pieces = (payload_len + mss - 1) / mss in
      let ok_count =
        List.for_all
          (fun piece ->
            match Ethernet.payload piece with
            | None -> false
            | Some pkt -> (
                match Ipv4.payload pkt with
                | None -> false
                | Some (ih, l4) -> (
                    if ih.Ipv4.protocol <> Ipv4.Tcp then false
                    else
                      match Tcp_wire.decode ~src ~dst l4 with
                      | None -> false
                      | Some (h, p) ->
                          (* Sequence numbers must advance contiguously. *)
                          let expect_seq =
                            Newt_net.Seq32.add hdr.Tcp_wire.seq (Buffer.length buf)
                          in
                          Buffer.add_bytes buf p;
                          h.Tcp_wire.seq = expect_seq)))
          pieces
      in
      ok_count
      && List.length pieces = expected_pieces
      && Bytes.equal (Buffer.to_bytes buf) payload)

let test_tso_flags_only_on_last () =
  let frame, src, dst, _, _ = make_tcp_frame ~payload_len:4000 () in
  let pieces = Offload.tso_split frame ~mss:1460 in
  let flags =
    List.map
      (fun piece ->
        match Ethernet.payload piece with
        | Some pkt -> (
            match Ipv4.payload pkt with
            | Some (_, l4) -> (
                match Tcp_wire.decode ~src ~dst l4 with
                | Some (h, _) -> h.Tcp_wire.flags.Tcp_wire.psh
                | None -> Alcotest.fail "undecodable piece")
            | None -> Alcotest.fail "bad ip")
        | None -> Alcotest.fail "bad eth")
      pieces
  in
  Alcotest.(check (list bool)) "PSH only on the last segment" [ false; false; true ] flags

let test_tso_small_frame_passthrough () =
  let frame, _, _, _, _ = make_tcp_frame ~payload_len:100 () in
  let pieces = Offload.tso_split frame ~mss:1460 in
  Alcotest.(check int) "single piece" 1 (List.length pieces)

let test_offload_udp_csum () =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let dg =
    Udp.encode_partial_csum ~src ~dst { Udp.src_port = 53; dst_port = 9999 }
      ~payload:(Bytes.of_string "answer")
  in
  let pkt =
    Ipv4.packet
      { Ipv4.src; dst; protocol = Ipv4.Udp; ttl = 64; ident = 1; total_len = 0 }
      ~payload:dg
  in
  let frame =
    Ethernet.frame
      { Ethernet.dst = Addr.Mac.of_index 2; src = Addr.Mac.of_index 1; ethertype = Ethernet.Ipv4 }
      ~payload:pkt
  in
  Alcotest.(check bool) "finalized" true (Offload.finalize_l4_checksum frame);
  match Ethernet.payload frame with
  | Some pkt -> (
      match Ipv4.payload pkt with
      | Some (_, l4) ->
          Alcotest.(check bool) "udp decodes" true (Udp.decode ~src ~dst l4 <> None)
      | None -> Alcotest.fail "bad ip")
  | None -> Alcotest.fail "bad eth"

(* {2 The device model} *)

type dev_world = {
  engine : Engine.t;
  registry : Registry.t;
  pool : Pool.t;
  dev : Mq.t;
  link : Link.t;
  received_frames : Bytes.t list ref;
}

(* One queue by default: the paper's PRO/1000 port. *)
let make_dev_world ?(queues = 1) () =
  let engine = Engine.create () in
  let registry = Registry.create () in
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:64 ~slot_size:2048 in
  Registry.register registry pool;
  let link = Link.create engine () in
  let dev =
    Mq.create engine ~registry ~link ~side:Link.Left ~mac:(Addr.Mac.of_index 1)
      ~rss:(Rss.create ~queues ()) ()
  in
  let received_frames = ref [] in
  Link.attach link Link.Right (fun f -> received_frames := Bytes.copy f :: !received_frames);
  { engine; registry; pool; dev; link; received_frames }

let post_frame ?(queue = 0) w bytes =
  let ptr = Pool.alloc w.pool ~len:(Bytes.length bytes) in
  Pool.write w.pool ptr ~src:bytes ~src_off:0;
  let ok =
    Mq.post_tx w.dev ~queue
      { Mq.chain = [ ptr ]; csum_offload = false; tso = false; tso_mss = 1460; tx_cookie = 7 }
  in
  Alcotest.(check bool) "posted" true ok;
  Mq.doorbell_tx w.dev ~queue

(* Give the device a DMA writer into the world's pool and [n] empty
   buffers on [queue]. *)
let arm_rx ?(queue = 0) ?(n = 1) w =
  Mq.set_rx_writer w.dev (fun ptr frame ->
      Pool.write w.pool { ptr with Rich_ptr.len = Bytes.length frame } ~src:frame ~src_off:0);
  for _ = 1 to n do
    let buf = Pool.alloc w.pool ~len:2048 in
    Alcotest.(check bool) "rx posted" true (Mq.post_rx w.dev ~queue { Mq.buf; rx_cookie = 3 })
  done

let deliver w frame = ignore (Link.transmit w.link ~from:Link.Right frame)

(* A corrupt IP total length (10, below the IP header's own 20 bytes)
   made the L4 length negative, and the checksum sum raised out of the
   device's TX pump. The frame must be refused and still leave the
   wire unchanged. *)
let test_offload_rejects_short_total_length () =
  let frame, _, _, _, _ = make_tcp_frame () in
  Newt_net.Wire.put_u16 frame (Ethernet.header_size + 2) 10;
  let sent = Bytes.copy frame in
  Alcotest.(check bool) "not finalized" false (Offload.finalize_l4_checksum frame);
  Alcotest.(check bytes) "frame untouched" sent frame;
  let w = make_dev_world () in
  let ptr = Pool.alloc w.pool ~len:(Bytes.length frame) in
  Pool.write w.pool ptr ~src:frame ~src_off:0;
  ignore
    (Mq.post_tx w.dev ~queue:0
       { Mq.chain = [ ptr ]; csum_offload = true; tso = false; tso_mss = 1460; tx_cookie = 1 });
  Mq.doorbell_tx w.dev ~queue:0;
  Engine.run w.engine;
  Alcotest.(check (list bytes)) "sent as is" [ sent ] !(w.received_frames)

let test_e1000_tx_path () =
  let w = make_dev_world () in
  post_frame w (Bytes.of_string "a frame on the wire");
  Engine.run w.engine;
  Alcotest.(check int) "transmitted" 1 (Mq.tx_packets w.dev);
  (match !(w.received_frames) with
  | [ f ] -> Alcotest.(check string) "content" "a frame on the wire" (Bytes.to_string f)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l)));
  (* Completion is reported so the owner can free the buffers. *)
  match Mq.reap_tx w.dev ~queue:0 with
  | Some d -> Alcotest.(check int) "cookie returned" 7 d.Mq.tx_cookie
  | None -> Alcotest.fail "no tx completion"

let test_e1000_tx_irq () =
  let w = make_dev_world () in
  let irqs = ref [] in
  Mq.set_irq_handler w.dev (fun r -> irqs := r :: !irqs);
  post_frame w (Bytes.create 64);
  Engine.run w.engine;
  Alcotest.(check bool) "tx interrupt raised" true (List.mem (Mq.Tx_done 0) !irqs)

let test_e1000_rx_path () =
  let w = make_dev_world () in
  let irqs = ref 0 in
  Mq.set_irq_handler w.dev (fun r -> if r = Mq.Rx_done 0 then incr irqs);
  arm_rx w;
  ignore (Link.transmit w.link ~from:Link.Right (Bytes.of_string "incoming!"));
  Engine.run w.engine;
  Alcotest.(check int) "rx interrupt" 1 !irqs;
  match Mq.reap_rx w.dev ~queue:0 with
  | Some completion ->
      Alcotest.(check int) "length" 9 completion.Mq.len;
      Alcotest.(check int) "cookie returned" 3 completion.Mq.cookie;
      let data =
        Pool.read w.pool { completion.Mq.rx_buf with Rich_ptr.len = completion.Mq.len }
      in
      Alcotest.(check string) "dma'd content" "incoming!" (Bytes.to_string data)
  | None -> Alcotest.fail "no rx completion"

let test_e1000_rx_no_buffer_drops () =
  let w = make_dev_world () in
  ignore (Link.transmit w.link ~from:Link.Right (Bytes.create 64));
  Engine.run w.engine;
  Alcotest.(check int) "dropped for lack of descriptors" 1 (Mq.rx_no_buffer w.dev)

let test_e1000_reset_bounces_link () =
  let w = make_dev_world () in
  let link_irq = ref false in
  Mq.set_irq_handler w.dev (fun r -> if r = Mq.Link_change then link_irq := true);
  Mq.reset w.dev;
  Alcotest.(check bool) "link down during reset" false (Mq.link_up w.dev);
  Engine.run w.engine;
  Alcotest.(check bool) "link back up" true (Mq.link_up w.dev);
  Alcotest.(check bool) "link-change interrupt" true !link_irq

let test_e1000_unsafe_stops_processing () =
  let w = make_dev_world () in
  Mq.mark_unsafe w.dev;
  post_frame w (Bytes.create 64);
  Engine.run w.engine;
  Alcotest.(check int) "nothing transmitted while unsafe" 0 (Mq.tx_packets w.dev);
  (* Reset recovers: once the link is back, a frame goes out. *)
  Mq.reset w.dev;
  Engine.run w.engine;
  post_frame w (Bytes.create 64);
  Engine.run w.engine;
  Alcotest.(check int) "a frame transmits after reset" 1 (Mq.tx_packets w.dev)

let test_e1000_misconfigured_drops_rx () =
  let w = make_dev_world () in
  arm_rx w;
  Mq.misconfigure w.dev;
  ignore (Link.transmit w.link ~from:Link.Right (Bytes.create 64));
  Engine.run w.engine;
  Alcotest.(check int) "misconfigured device receives nothing" 0 (Mq.rx_packets w.dev);
  (* A reset reprograms the device. *)
  Mq.reset w.dev;
  Engine.run w.engine;
  arm_rx w;
  deliver w (Bytes.create 64);
  Engine.run w.engine;
  Alcotest.(check int) "receives again after reset" 1 (Mq.rx_packets w.dev)

let test_e1000_stale_chain_dropped () =
  let w = make_dev_world () in
  let ptr = Pool.alloc w.pool ~len:64 in
  Pool.write w.pool ptr ~src:(Bytes.create 64) ~src_off:0;
  ignore
    (Mq.post_tx w.dev ~queue:0
       { Mq.chain = [ ptr ]; csum_offload = false; tso = false; tso_mss = 0; tx_cookie = 1 });
  (* The owner crashes and its pool is freed before the DMA happens. *)
  Pool.free w.pool ptr;
  Mq.doorbell_tx w.dev ~queue:0;
  Engine.run w.engine;
  Alcotest.(check int) "frame dropped, not garbage-transmitted" 0 (Mq.tx_packets w.dev);
  Alcotest.(check bool) "descriptor still completes" true (Mq.reap_tx w.dev ~queue:0 <> None)

let test_e1000_tso_on_the_wire () =
  let w = make_dev_world () in
  (* An oversized TSO frame needs a jumbo pool slot. *)
  let jumbo = Pool.create ~id:(Pool.fresh_id ()) ~slots:4 ~slot_size:65536 in
  Registry.register w.registry jumbo;
  let frame, src, dst, _, payload = make_tcp_frame ~payload_len:4000 () in
  let ptr = Pool.alloc jumbo ~len:(Bytes.length frame) in
  Pool.write jumbo ptr ~src:frame ~src_off:0;
  ignore
    (Mq.post_tx w.dev ~queue:0
       { Mq.chain = [ ptr ]; csum_offload = true; tso = true; tso_mss = 1460; tx_cookie = 1 });
  Mq.doorbell_tx w.dev ~queue:0;
  Engine.run w.engine;
  Alcotest.(check int) "split into 3 wire frames" 3 (List.length !(w.received_frames));
  (* Each piece decodes and the payload reassembles. *)
  let buf = Buffer.create 4000 in
  List.iter
    (fun piece ->
      match Ethernet.payload piece with
      | Some pkt -> (
          match Ipv4.payload pkt with
          | Some (_, l4) -> (
              match Tcp_wire.decode ~src ~dst l4 with
              | Some (_, p) -> Buffer.add_bytes buf p
              | None -> Alcotest.fail "bad tcp csum on wire")
          | None -> Alcotest.fail "bad ip")
      | None -> Alcotest.fail "bad eth")
    (List.rev !(w.received_frames));
  Alcotest.(check bytes) "payload reassembles" payload (Buffer.to_bytes buf)

(* A TCP frame of the flow 10.0.0.1:[sport] -> 10.0.0.2:80. The device
   steers on the ports and never verifies the checksum. *)
let flow_frame ~sport =
  let frame, _, _, _, _ = make_tcp_frame () in
  Bytes.set_uint16_be frame (Ethernet.header_size + 20) sport;
  frame

let queue_of_flow w ~sport =
  Rss.queue_of (Mq.rss w.dev) ~src:(ip 10 0 0 1) ~sport ~dst:(ip 10 0 0 2) ~dport:80

(* The first source port from 5001 up whose flow steers to [queue]. *)
let rec sport_on w ~queue sport =
  if queue_of_flow w ~sport = queue then sport else sport_on w ~queue (sport + 1)

let test_mq_queue_fence_spares_others () =
  let w = make_dev_world ~queues:2 () in
  arm_rx w ~queue:0 ~n:2;
  arm_rx w ~queue:1;
  Mq.mark_queue_unsafe w.dev ~queue:1;
  post_frame w ~queue:1 (Bytes.create 64);
  post_frame w ~queue:0 (Bytes.create 64);
  (* Non-IP traffic lands on queue 0. *)
  deliver w (Bytes.create 64);
  deliver w (flow_frame ~sport:(sport_on w ~queue:1 5001));
  Engine.run w.engine;
  Alcotest.(check int) "queue 0 transmits" 1 (Mq.tx_packets w.dev);
  Alcotest.(check (array int)) "queue 0 receives" [| 1; 0 |] (Mq.rx_queue_packets w.dev);
  Alcotest.(check int) "the fenced queue drops" 1 (Mq.rx_no_buffer w.dev);
  Mq.reset_queue w.dev ~queue:1;
  Alcotest.(check bool) "no link bounce" true (Mq.link_up w.dev);
  post_frame w ~queue:0 (Bytes.create 64);
  post_frame w ~queue:1 (Bytes.create 64);
  deliver w (Bytes.create 64);
  Engine.run w.engine;
  Alcotest.(check int) "both queues transmit" 3 (Mq.tx_packets w.dev);
  Alcotest.(check (array int)) "queue 0 still receives" [| 2; 0 |] (Mq.rx_queue_packets w.dev)

let test_mq_rebalance_counts_one_violation () =
  let w = make_dev_world ~queues:2 () in
  arm_rx w ~queue:0 ~n:4;
  arm_rx w ~queue:1 ~n:4;
  let rss = Mq.rss w.dev in
  let sport = 5001 in
  let q = queue_of_flow w ~sport in
  let bucket =
    Rss.hash rss ~src:(ip 10 0 0 1) ~sport ~dst:(ip 10 0 0 2) ~dport:80 mod Rss.buckets rss
  in
  deliver w (flow_frame ~sport);
  deliver w (flow_frame ~sport);
  Engine.run w.engine;
  Alcotest.(check int) "a steady flow is no violation" 0 (Mq.steering_violations w.dev);
  Rss.set_bucket rss ~bucket ~queue:(1 - q);
  deliver w (flow_frame ~sport);
  deliver w (flow_frame ~sport);
  Engine.run w.engine;
  Alcotest.(check int) "the moved flow counts once" 1 (Mq.steering_violations w.dev);
  Alcotest.(check int) "it lands on its new queue" 2 (Mq.rx_queue_packets w.dev).(1 - q)

let test_mq_one_queue_takes_everything () =
  let w = make_dev_world () in
  arm_rx w ~n:9;
  for sport = 5001 to 5008 do
    deliver w (flow_frame ~sport)
  done;
  deliver w (Bytes.create 64);
  Engine.run w.engine;
  Alcotest.(check (array int)) "all on queue 0" [| 9 |] (Mq.rx_queue_packets w.dev);
  Alcotest.(check int) "no steering violations" 0 (Mq.steering_violations w.dev)

(* {2 Pcap} *)

let test_pcap_capture_format () =
  let e = Engine.create () in
  let l = Link.create e () in
  Link.attach l Link.Right (fun _ -> ());
  let cap = Newt_nic.Pcap.create () in
  Newt_nic.Pcap.attach cap l;
  ignore (Link.transmit l ~from:Link.Left (Bytes.make 60 'a'));
  ignore (Link.transmit l ~from:Link.Left (Bytes.make 100 'b'));
  Engine.run e;
  Alcotest.(check int) "two frames captured" 2 (Newt_nic.Pcap.frames cap);
  let file = Newt_nic.Pcap.to_bytes cap in
  (* Global header: LE magic a1b2c3d4, version 2.4, linktype 1. *)
  let le32 off =
    Char.code (Bytes.get file off)
    lor (Char.code (Bytes.get file (off + 1)) lsl 8)
    lor (Char.code (Bytes.get file (off + 2)) lsl 16)
    lor (Char.code (Bytes.get file (off + 3)) lsl 24)
  in
  Alcotest.(check int) "magic" 0xa1b2c3d4 (le32 0);
  Alcotest.(check int) "linktype ethernet" 1 (le32 20);
  Alcotest.(check int) "total size" (24 + (16 + 60) + (16 + 100)) (Bytes.length file);
  (* First record's included length. *)
  Alcotest.(check int) "first record length" 60 (le32 (24 + 8))

let test_pcap_timestamps_monotonic () =
  let e = Engine.create () in
  let l = Link.create e () in
  Link.attach l Link.Right (fun _ -> ());
  let cap = Newt_nic.Pcap.create () in
  Newt_nic.Pcap.attach cap l;
  for _ = 1 to 5 do
    ignore (Link.transmit l ~from:Link.Left (Bytes.make 1500 'x'))
  done;
  Engine.run e;
  let file = Newt_nic.Pcap.to_bytes cap in
  let le32 off =
    Char.code (Bytes.get file off)
    lor (Char.code (Bytes.get file (off + 1)) lsl 8)
    lor (Char.code (Bytes.get file (off + 2)) lsl 16)
    lor (Char.code (Bytes.get file (off + 3)) lsl 24)
  in
  (* Successive records: usecs strictly increase (1500B = 12us apart). *)
  let ts i =
    let off = 24 + (i * (16 + 1500)) in
    (le32 off * 1_000_000) + le32 (off + 4)
  in
  for i = 0 to 3 do
    Alcotest.(check bool) "monotonic timestamps" true (ts (i + 1) > ts i)
  done

(* {2 Lent frames and gather into the wire} *)

(* The link lends a landed frame to its receiver for the callback. A
   receiver that answers on the same direction while it holds the
   frame, by a copying transmit or by writing a slot in place, must
   still read its own frame intact: with one buffer per direction both
   answers land in the very slot the frame was lent from. *)
let test_link_lent_frame_survives_a_transmit () =
  let e = Engine.create () in
  let l = Link.create e ~queue_frames:1 () in
  let frame c = Bytes.make 64 c in
  let seen = ref [] in
  Link.attach l Link.Right (fun f ->
      let mine = Bytes.to_string f in
      (match mine.[0] with
      | 'a' -> Alcotest.(check bool) "copy accepted" true (Link.transmit l ~from:Link.Left (frame 'b'))
      | 'b' ->
          Alcotest.(check bool) "slot accepted" true (Link.accepts l ~from:Link.Left);
          Bytes.fill (Link.slot l ~from:Link.Left ~len:64) 0 64 'c';
          Link.commit l ~from:Link.Left
      | _ -> ());
      Alcotest.(check string) "own frame intact after answering" mine (Bytes.to_string f);
      seen := mine.[0] :: !seen);
  Alcotest.(check bool) "first accepted" true (Link.transmit l ~from:Link.Left (frame 'a'));
  Engine.run e;
  Alcotest.(check (list char)) "every frame, in order" [ 'a'; 'b'; 'c' ] (List.rev !seen);
  Alcotest.(check int) "nothing dropped" 0 (Link.dropped l)

(* The device gathers a descriptor's chain straight into the link's
   slot and finalizes its checksum there: on random chains (TCP, UDP
   and non-IP frames, cut into chunks at random offsets of their pool
   slots, offload on or off) the wire carries exactly what
   [Registry.gather] followed by [Offload.finalize_l4_checksum] makes.
   Several frames of one length pass through the same slot, so a byte
   the gather failed to write would show the previous frame. *)
let gen_tx_frames =
  let open QCheck2.Gen in
  let frame =
    let* kind = int_range 0 2 in
    let* body = int_range 0 600 in
    let* stamp = int_bound 0xffffff in
    let* cuts = list_size (int_range 0 4) (int_range 1 700) in
    let* pad = int_range 0 8 in
    let* csum = bool in
    return (kind, body, stamp, cuts, pad, csum)
  in
  list_size (int_range 1 8) frame

let tx_frame_bytes (kind, body, stamp, _, _, _) =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let f =
    match kind with
    | 0 ->
        let f, _, _, _, _ = make_tcp_frame ~payload_len:(body + 4) () in
        f
    | 1 ->
        let payload = Bytes.make (body + 4) 'u' in
        let dg =
          Udp.encode_partial_csum ~src ~dst { Udp.src_port = 53; dst_port = 4000 } ~payload
        in
        let pkt =
          Ipv4.packet
            { Ipv4.src; dst; protocol = Ipv4.Udp; ttl = 64; ident = 1; total_len = 0 }
            ~payload:dg
        in
        Ethernet.frame
          { Ethernet.dst = Addr.Mac.of_index 2; src = Addr.Mac.of_index 1; ethertype = Ethernet.Ipv4 }
          ~payload:pkt
    | _ -> Bytes.make (body + 18) 'r'
  in
  (* The last four bytes are payload in every kind: stamp them. *)
  Bytes.set_int32_be f (Bytes.length f - 4) (Int32.of_int stamp);
  f

let gather_into_slot_matches_gather frames =
  let w = make_dev_world () in
  let expected =
    List.mapi
      (fun i ((_, _, _, cuts, pad, csum) as spec) ->
        let f = tx_frame_bytes spec in
        let len = Bytes.length f in
        let bounds =
          List.sort_uniq compare (0 :: len :: List.filter (fun c -> c < len) cuts)
        in
        let rec chunks = function
          | a :: (b :: _ as rest) ->
              let whole = Pool.alloc w.pool ~len:(pad + b - a) in
              let src = Bytes.make (pad + b - a) '\xee' in
              Bytes.blit f a src pad (b - a);
              Pool.write w.pool whole ~src ~src_off:0;
              Pool.sub_ptr whole ~off:pad ~len:(b - a) :: chunks rest
          | [ _ ] | [] -> []
        in
        let chain = chunks bounds in
        let want = Registry.gather w.registry chain in
        if csum then ignore (Offload.finalize_l4_checksum want : bool);
        ignore
          (Mq.post_tx w.dev ~queue:0
             { Mq.chain; csum_offload = csum; tso = false; tso_mss = 1460; tx_cookie = i }
            : bool);
        want)
      frames
  in
  Mq.doorbell_tx w.dev ~queue:0;
  Engine.run w.engine;
  List.rev !(w.received_frames) = expected

let test_gather_into_slot =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"gather into the link slot equals gather then finalize"
       gen_tx_frames gather_into_slot_matches_gather)

let suite =
  [
    ("ring descriptor lifecycle", `Quick, test_ring_lifecycle);
    ("ring full/reap interplay", `Quick, test_ring_full);
    ("ring clear returns leftovers (reset)", `Quick, test_ring_clear_returns_leftovers);
    ("ring index wraparound", `Quick, test_ring_wraparound);
    ("ring drops reaped and cleared descriptors", `Quick,
      test_ring_drops_finished_descriptors);
    ( "ring batched reap-after-complete across wrap",
      `Quick,
      test_ring_reap_after_complete_across_wrap );
    ("rss deterministic and symmetric", `Quick, test_rss_deterministic_and_symmetric);
    ("rss indirection table programming", `Quick, test_rss_indirection_table);
    test_rss_matches_reference;
    ("link delivers frames in order", `Quick, test_link_delivers_in_order);
    ("link 1Gbps serialization time", `Quick, test_link_serialization_time);
    ("link down drops frames", `Quick, test_link_down_drops);
    ("link down flushes in-flight frames", `Quick, test_link_down_flushes_in_flight);
    ("link down frees its transmit queue", `Quick, test_link_down_frees_queue);
    ("link queue overflow", `Quick, test_link_queue_overflow);
    ("link is full duplex", `Quick, test_link_full_duplex);
    test_link_ring_keeps_the_stream;
    ("offload finalizes tcp checksum", `Quick, test_offload_finalizes_tcp_csum);
    ("offload rejects non-ip frames", `Quick, test_offload_rejects_non_ip);
    ("offload rejects a short ip total length", `Quick, test_offload_rejects_short_total_length);
    test_tso_split_validates;
    ("tso keeps PSH only on last piece", `Quick, test_tso_flags_only_on_last);
    ("tso passthrough for small frames", `Quick, test_tso_small_frame_passthrough);
    ("offload finalizes udp checksum", `Quick, test_offload_udp_csum);
    ("e1000 tx path end to end", `Quick, test_e1000_tx_path);
    ("e1000 raises tx interrupts", `Quick, test_e1000_tx_irq);
    ("e1000 rx path end to end", `Quick, test_e1000_rx_path);
    ("e1000 drops rx without buffers", `Quick, test_e1000_rx_no_buffer_drops);
    ("e1000 reset bounces the link", `Quick, test_e1000_reset_bounces_link);
    ("e1000 unsafe after owner crash", `Quick, test_e1000_unsafe_stops_processing);
    ("e1000 misconfigured stops receiving", `Quick, test_e1000_misconfigured_drops_rx);
    ("e1000 drops frames with dead buffers", `Quick, test_e1000_stale_chain_dropped);
    ("e1000 TSO produces valid wire frames", `Quick, test_e1000_tso_on_the_wire);
    ("mq queue fence spares the other queues", `Quick, test_mq_queue_fence_spares_others);
    ("mq rebalance counts one steering violation", `Quick, test_mq_rebalance_counts_one_violation);
    ("mq one queue takes every frame", `Quick, test_mq_one_queue_takes_everything);
    ("pcap capture file format", `Quick, test_pcap_capture_format);
    ("pcap timestamps monotonic", `Quick, test_pcap_timestamps_monotonic);
    ("link lent frame survives a transmit in its callback", `Quick,
      test_link_lent_frame_survives_a_transmit);
    test_gather_into_slot;
  ]
