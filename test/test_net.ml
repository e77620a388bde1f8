(* Codec and protocol-helper tests: checksum, addresses, Ethernet, ARP,
   IPv4, ICMP, UDP, TCP wire format, Seq32 and Bytebuf. Property-based
   where invariants allow. *)

module Addr = Newt_net.Addr
module Checksum = Newt_net.Checksum
module Ethernet = Newt_net.Ethernet
module Arp = Newt_net.Arp
module Ipv4 = Newt_net.Ipv4
module Icmp = Newt_net.Icmp
module Udp = Newt_net.Udp
module Tcp_wire = Newt_net.Tcp_wire
module Seq32 = Newt_net.Seq32
module Dns = Newt_net.Dns
module Bytebuf = Newt_net.Bytebuf

let ip = Addr.Ipv4.v
let qtest name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

(* {2 Addresses} *)

let test_ipv4_roundtrip () =
  let a = ip 192 168 1 42 in
  Alcotest.(check string) "print" "192.168.1.42" (Addr.Ipv4.to_string a);
  (match Addr.Ipv4.of_string "192.168.1.42" with
  | Some b -> Alcotest.(check bool) "parse roundtrip" true (Addr.Ipv4.equal a b)
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check (option string)) "garbage rejected" None
    (Option.map Addr.Ipv4.to_string (Addr.Ipv4.of_string "1.2.3.456"));
  Alcotest.(check (option string)) "short rejected" None
    (Option.map Addr.Ipv4.to_string (Addr.Ipv4.of_string "1.2.3"))

let test_ipv4_prefix () =
  let p = ip 10 0 0 0 in
  Alcotest.(check bool) "in /8" true (Addr.Ipv4.in_prefix ~prefix:p ~bits:8 (ip 10 9 8 7));
  Alcotest.(check bool) "not in /8" false (Addr.Ipv4.in_prefix ~prefix:p ~bits:8 (ip 11 0 0 1));
  Alcotest.(check bool) "/0 matches all" true
    (Addr.Ipv4.in_prefix ~prefix:p ~bits:0 (ip 200 1 2 3));
  Alcotest.(check bool) "/32 exact" true
    (Addr.Ipv4.in_prefix ~prefix:(ip 10 1 2 3) ~bits:32 (ip 10 1 2 3));
  Alcotest.(check bool) "/32 differs" false
    (Addr.Ipv4.in_prefix ~prefix:(ip 10 1 2 3) ~bits:32 (ip 10 1 2 4))

let test_mac_roundtrip () =
  let m = Addr.Mac.of_octets [| 0x02; 0xaa; 0xbb; 0xcc; 0xdd; 0x01 |] in
  Alcotest.(check string) "print" "02:aa:bb:cc:dd:01" (Addr.Mac.to_string m);
  Alcotest.(check bool) "octet roundtrip" true
    (Addr.Mac.equal m (Addr.Mac.of_octets (Addr.Mac.to_octets m)));
  Alcotest.(check bool) "of_index distinct" true
    (not (Addr.Mac.equal (Addr.Mac.of_index 1) (Addr.Mac.of_index 2)))

(* {2 Checksum} *)

let test_checksum_known_vector () =
  (* The classic RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc vector" 0x220d (Checksum.bytes b ~off:0 ~len:8)

let test_checksum_self_validates =
  qtest "checksummed region validates to zero"
    QCheck2.Gen.(string_size ~gen:char (int_range 2 300))
    (fun s ->
      let b = Bytes.of_string s in
      (* Store the checksum over the region in the first 2 bytes. *)
      Bytes.set b 0 '\000';
      Bytes.set b 1 '\000';
      let c = Checksum.bytes b ~off:0 ~len:(Bytes.length b) in
      Bytes.set b 0 (Char.chr (c lsr 8));
      Bytes.set b 1 (Char.chr (c land 0xff));
      Checksum.valid b ~off:0 ~len:(Bytes.length b))

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* sum = 0x0102 + 0x0300 = 0x0402; csum = ~0x0402 = 0xfbfd. *)
  Alcotest.(check int) "odd length pads" 0xfbfd (Checksum.bytes b ~off:0 ~len:3)

(* The reference: RFC 1071 one byte at a time, even bytes high. *)
let ref_add acc b ~off ~len =
  let acc = ref acc in
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.get b (off + i)) in
    acc := !acc + if i land 1 = 0 then c lsl 8 else c
  done;
  !acc

let rec ref_fold x = if x lsr 16 = 0 then x else ref_fold ((x land 0xffff) + (x lsr 16))
let ref_finish x = lnot (ref_fold x) land 0xffff

(* Bytes that are often 0xff, so the carries the word-wide kernel folds
   late are exercised hard. *)
let csum_char = QCheck2.Gen.(frequency [ (3, char); (1, return '\255') ])

let test_checksum_matches_reference =
  qtest "word-wide checksum equals the byte-at-a-time reference"
    QCheck2.Gen.(
      let* off = int_range 0 15 in
      let* len = int_range 0 2048 in
      let* pad = int_range 0 7 in
      let+ s = string_size ~gen:csum_char (return (off + len + pad)) in
      (off, len, s))
    (fun (off, len, s) ->
      let b = Bytes.of_string s in
      let p = Checksum.add_bytes Checksum.zero b ~off ~len in
      let r = ref_add 0 b ~off ~len in
      Checksum.fold p = ref_fold r
      && Checksum.finish p = ref_finish r
      && Checksum.bytes b ~off ~len = ref_finish r)

let test_checksum_chained_partials =
  qtest "chained partials equal the reference"
    QCheck2.Gen.(
      let* regions = list_size (int_range 0 4) (pair (int_range 0 15) (int_range 0 400)) in
      let* last = pair (int_range 0 15) (int_range 0 1500) in
      let* w = int_range 0 0xffff in
      let* a = int_range 0 0xffffffff in
      let+ s = string_size ~gen:csum_char (return 1600) in
      (List.map (fun (o, l) -> (o, 2 * l)) regions, last, w, a, s))
    (fun (regions, (lo, ll), w, a, s) ->
      let b = Bytes.of_string s in
      let src = Addr.Ipv4.of_int32 (Int32.of_int a) and dst = ip 10 0 0 2 in
      let ph = Bytes.create 12 in
      Newt_net.Wire.put_ip ph 0 src;
      Newt_net.Wire.put_ip ph 4 dst;
      Newt_net.Wire.put_u16 ph 8 17;
      Newt_net.Wire.put_u16 ph 10 ll;
      let p = Checksum.add_int16 (Udp.pseudo_header_sum ~src ~dst ~proto:17 ~len:ll) w in
      let r = ref_add 0 ph ~off:0 ~len:12 + w in
      let p, r =
        List.fold_left
          (fun (p, r) (off, len) ->
            (Checksum.add_bytes p b ~off ~len, ref_add r b ~off ~len))
          (p, r) regions
      in
      let p = Checksum.add_bytes p b ~off:lo ~len:ll in
      let r = ref_add r b ~off:lo ~len:ll in
      Checksum.fold p = ref_fold r && Checksum.finish p = ref_finish r)

(* The kernel's loads are unchecked: its one range check must refuse
   every region that is not inside the buffer, also with -noassert. *)
let test_checksum_range_checked () =
  let b = Bytes.create 64 in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off=%d len=%d" off len)
        (Invalid_argument "Checksum.add_bytes")
        (fun () -> ignore (Checksum.add_bytes Checksum.zero b ~off ~len)))
    [ (-1, 8); (0, -1); (0, 65); (57, 8); (64, 1); (65, 0); (1, max_int); (max_int, 1) ];
  Alcotest.(check int) "empty region at the end" 0xffff (Checksum.bytes b ~off:64 ~len:0)

(* {2 Ethernet} *)

let test_ethernet_roundtrip () =
  let h =
    {
      Ethernet.dst = Addr.Mac.of_index 5;
      src = Addr.Mac.of_index 9;
      ethertype = Ethernet.Ipv4;
    }
  in
  let frame = Ethernet.frame h ~payload:(Bytes.of_string "hello") in
  (match Ethernet.decode_header frame ~off:0 with
  | Some h' ->
      Alcotest.(check bool) "dst" true (Addr.Mac.equal h.Ethernet.dst h'.Ethernet.dst);
      Alcotest.(check bool) "src" true (Addr.Mac.equal h.Ethernet.src h'.Ethernet.src);
      Alcotest.(check bool) "ethertype" true (h'.Ethernet.ethertype = Ethernet.Ipv4)
  | None -> Alcotest.fail "decode failed");
  match Ethernet.payload frame with
  | Some p -> Alcotest.(check string) "payload" "hello" (Bytes.to_string p)
  | None -> Alcotest.fail "payload failed"

let test_ethernet_runt () =
  Alcotest.(check bool) "runt rejected" true
    (Ethernet.decode_header (Bytes.create 5) ~off:0 = None)

(* {2 ARP} *)

let test_arp_roundtrip () =
  let p =
    {
      Arp.op = Arp.Request;
      sender_mac = Addr.Mac.of_index 1;
      sender_ip = ip 10 0 0 1;
      target_mac = Addr.Mac.broadcast;
      target_ip = ip 10 0 0 2;
    }
  in
  match Arp.decode (Arp.encode p) with
  | Some p' ->
      Alcotest.(check bool) "op" true (p'.Arp.op = Arp.Request);
      Alcotest.(check bool) "sender ip" true (Addr.Ipv4.equal p'.Arp.sender_ip (ip 10 0 0 1));
      Alcotest.(check bool) "target ip" true (Addr.Ipv4.equal p'.Arp.target_ip (ip 10 0 0 2))
  | None -> Alcotest.fail "arp decode failed"

let test_arp_cache_resolution () =
  let my_mac = Addr.Mac.of_index 1 and my_ip = ip 10 0 0 1 in
  let peer_mac = Addr.Mac.of_index 2 and peer_ip = ip 10 0 0 2 in
  let c = Arp.Cache.create ~my_mac ~my_ip () in
  let resolved = ref None in
  (match Arp.Cache.resolve c peer_ip ~on_ready:(fun m -> resolved := Some m) with
  | `Wait -> ()
  | `Hit _ | `Dropped -> Alcotest.fail "expected Wait on cold cache");
  (* Peer replies. *)
  let reply =
    {
      Arp.op = Arp.Reply;
      sender_mac = peer_mac;
      sender_ip = peer_ip;
      target_mac = my_mac;
      target_ip = my_ip;
    }
  in
  Alcotest.(check bool) "no counter-reply to a reply" true (Arp.Cache.input c reply = None);
  (match !resolved with
  | Some m -> Alcotest.(check bool) "callback got mac" true (Addr.Mac.equal m peer_mac)
  | None -> Alcotest.fail "pending callback not fired");
  match Arp.Cache.resolve c peer_ip ~on_ready:(fun _ -> ()) with
  | `Hit m -> Alcotest.(check bool) "cached now" true (Addr.Mac.equal m peer_mac)
  | `Wait | `Dropped -> Alcotest.fail "expected Hit after learning"

let test_arp_cache_answers_requests () =
  let my_mac = Addr.Mac.of_index 1 and my_ip = ip 10 0 0 1 in
  let c = Arp.Cache.create ~my_mac ~my_ip () in
  let req =
    {
      Arp.op = Arp.Request;
      sender_mac = Addr.Mac.of_index 2;
      sender_ip = ip 10 0 0 2;
      target_mac = Addr.Mac.broadcast;
      target_ip = my_ip;
    }
  in
  match Arp.Cache.input c req with
  | Some reply ->
      Alcotest.(check bool) "reply op" true (reply.Arp.op = Arp.Reply);
      Alcotest.(check bool) "reply sender is me" true (Addr.Mac.equal reply.Arp.sender_mac my_mac);
      (* And we learned the requester opportunistically. *)
      Alcotest.(check bool) "learned requester" true
        (Arp.Cache.lookup c (ip 10 0 0 2) <> None)
  | None -> Alcotest.fail "no reply to request for my ip"

let test_arp_pending_overflow_drops () =
  let c =
    Arp.Cache.create ~max_pending:2 ~my_mac:(Addr.Mac.of_index 1)
      ~my_ip:(ip 10 0 0 1) ()
  in
  let target = ip 10 0 0 9 in
  (match Arp.Cache.resolve c target ~on_ready:(fun _ -> ()) with
  | `Wait -> ()
  | `Hit _ | `Dropped -> Alcotest.fail "first resolve should wait");
  (match Arp.Cache.resolve c target ~on_ready:(fun _ -> ()) with
  | `Wait -> ()
  | `Hit _ | `Dropped -> Alcotest.fail "second resolve should queue");
  (match Arp.Cache.resolve c target ~on_ready:(fun _ -> ()) with
  | `Dropped -> ()
  | `Wait | `Hit _ -> Alcotest.fail "third resolve should be dropped (bounded queue)")

let test_icmp_dest_unreachable () =
  let m = Icmp.Dest_unreachable { code = 3 } in
  (match Icmp.decode (Icmp.encode m) with
  | Some (Icmp.Dest_unreachable { code }) -> Alcotest.(check int) "code" 3 code
  | _ -> Alcotest.fail "unreachable decode failed");
  Alcotest.(check bool) "no reply to an error message" true (Icmp.reply_to m = None)

let test_icmp_oversized_echo_rejected () =
  (* A monster echo payload must be refused by the decoder (the
     ping-of-death guard). *)
  let b = Bytes.create (8 + Icmp.max_echo_payload + 1) in
  Newt_net.Wire.put_u8 b 0 8;
  Newt_net.Wire.put_u8 b 1 0;
  Newt_net.Wire.put_u16 b 2 0;
  Newt_net.Wire.put_u16 b 2 (Checksum.bytes b ~off:0 ~len:(Bytes.length b));
  Alcotest.(check bool) "oversized echo rejected" true (Icmp.decode b = None)

let test_arp_flush () =
  let c = Arp.Cache.create ~my_mac:(Addr.Mac.of_index 1) ~my_ip:(ip 10 0 0 1) () in
  Arp.Cache.insert c (ip 10 0 0 9) (Addr.Mac.of_index 9);
  Alcotest.(check int) "one entry" 1 (Arp.Cache.size c);
  Arp.Cache.flush c;
  Alcotest.(check int) "flushed" 0 (Arp.Cache.size c)

(* {2 IPv4} *)

let test_ipv4_header_roundtrip () =
  let h =
    {
      Ipv4.src = ip 10 0 0 1;
      dst = ip 10 0 0 2;
      protocol = Ipv4.Tcp;
      ttl = 64;
      ident = 4242;
      total_len = 0;
    }
  in
  let pkt = Ipv4.packet h ~payload:(Bytes.of_string "payload!") in
  match Ipv4.payload pkt with
  | Some (h', p) ->
      Alcotest.(check bool) "src" true (Addr.Ipv4.equal h'.Ipv4.src (ip 10 0 0 1));
      Alcotest.(check bool) "proto" true (h'.Ipv4.protocol = Ipv4.Tcp);
      Alcotest.(check int) "total len" 28 h'.Ipv4.total_len;
      Alcotest.(check string) "payload" "payload!" (Bytes.to_string p)
  | None -> Alcotest.fail "ip decode failed"

let test_ipv4_corrupt_checksum_rejected () =
  let h =
    {
      Ipv4.src = ip 1 2 3 4;
      dst = ip 5 6 7 8;
      protocol = Ipv4.Udp;
      ttl = 64;
      ident = 1;
      total_len = 0;
    }
  in
  let pkt = Ipv4.packet h ~payload:Bytes.empty in
  Bytes.set pkt 8 '\x01' (* corrupt the ttl field *);
  Alcotest.(check bool) "rejected" true (Ipv4.decode_header pkt ~off:0 = None)

let test_route_longest_prefix () =
  let t = Ipv4.Route.create () in
  Ipv4.Route.add t { Ipv4.Route.prefix = ip 0 0 0 0; bits = 0; iface = 0; gateway = Some (ip 10 0 0 254) };
  Ipv4.Route.add t { Ipv4.Route.prefix = ip 10 0 0 0; bits = 8; iface = 1; gateway = None };
  Ipv4.Route.add t { Ipv4.Route.prefix = ip 10 1 0 0; bits = 16; iface = 2; gateway = None };
  let iface_for a = match Ipv4.Route.lookup t a with Some e -> e.Ipv4.Route.iface | None -> -1 in
  Alcotest.(check int) "most specific wins" 2 (iface_for (ip 10 1 2 3));
  Alcotest.(check int) "/8 route" 1 (iface_for (ip 10 2 3 4));
  Alcotest.(check int) "default route" 0 (iface_for (ip 8 8 8 8));
  Ipv4.Route.remove t ~prefix:(ip 10 1 0 0) ~bits:16;
  Alcotest.(check int) "after removal falls back" 1 (iface_for (ip 10 1 2 3))

(* {2 ICMP} *)

let test_icmp_echo_roundtrip () =
  let m = Icmp.Echo_request { ident = 7; seq = 3; data = Bytes.of_string "ping" } in
  (match Icmp.decode (Icmp.encode m) with
  | Some (Icmp.Echo_request { ident; seq; data }) ->
      Alcotest.(check int) "ident" 7 ident;
      Alcotest.(check int) "seq" 3 seq;
      Alcotest.(check string) "data" "ping" (Bytes.to_string data)
  | _ -> Alcotest.fail "echo decode failed");
  match Icmp.reply_to m with
  | Some (Icmp.Echo_reply { ident = 7; seq = 3; _ }) -> ()
  | _ -> Alcotest.fail "reply_to wrong"

let test_icmp_bad_checksum () =
  let b = Icmp.encode (Icmp.Echo_request { ident = 1; seq = 1; data = Bytes.empty }) in
  Bytes.set b 4 '\xff';
  Alcotest.(check bool) "corrupt rejected" true (Icmp.decode b = None)

(* {2 UDP} *)

let test_udp_roundtrip () =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let dg = Udp.encode ~src ~dst { Udp.src_port = 53; dst_port = 4242 } ~payload:(Bytes.of_string "dns?") in
  match Udp.decode ~src ~dst dg with
  | Some (h, p) ->
      Alcotest.(check int) "src port" 53 h.Udp.src_port;
      Alcotest.(check int) "dst port" 4242 h.Udp.dst_port;
      Alcotest.(check string) "payload" "dns?" (Bytes.to_string p)
  | None -> Alcotest.fail "udp decode failed"

let test_udp_wrong_pseudo_header_rejected () =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let dg = Udp.encode ~src ~dst { Udp.src_port = 1; dst_port = 2 } ~payload:Bytes.empty in
  (* Same bytes validated against different addresses must fail. *)
  Alcotest.(check bool) "rejected" true (Udp.decode ~src:(ip 9 9 9 9) ~dst dg = None)

(* RFC 768 / RFC 1122 §4.1.3.4: a transmitted checksum of 0 means the
   sender computed none, and the datagram must be accepted. *)
let test_udp_zero_checksum_accepted () =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let dg = Udp.encode ~src ~dst { Udp.src_port = 53; dst_port = 4242 } ~payload:(Bytes.of_string "dns?") in
  Newt_net.Wire.put_u16 dg 6 0;
  match Udp.decode ~src ~dst dg with
  | Some (h, p) ->
      Alcotest.(check int) "dst port" 4242 h.Udp.dst_port;
      Alcotest.(check string) "payload" "dns?" (Bytes.to_string p)
  | None -> Alcotest.fail "datagram without a checksum rejected"

let test_udp_offload_finalize () =
  let src = ip 172 16 0 1 and dst = ip 172 16 0 2 in
  let partial =
    Udp.encode_partial_csum ~src ~dst { Udp.src_port = 7; dst_port = 9 }
      ~payload:(Bytes.of_string "offloaded payload")
  in
  (* Before finalization the checksum is not valid... *)
  Alcotest.(check bool) "partial invalid" true (Udp.decode ~src ~dst partial = None);
  Udp.finalize_csum partial;
  match Udp.decode ~src ~dst partial with
  | Some (_, p) -> Alcotest.(check string) "after offload" "offloaded payload" (Bytes.to_string p)
  | None -> Alcotest.fail "finalized datagram invalid"

(* {2 TCP wire} *)

let test_tcp_wire_roundtrip =
  qtest "tcp header + payload roundtrip"
    QCheck2.Gen.(
      tup4 (int_range 0 65535) (int_range 0 65535)
        (int_range 0 0xfffffff) (string_size ~gen:char (int_range 0 1460)))
    (fun (sp, dp, seq, payload) ->
      let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
      let h =
        {
          Tcp_wire.src_port = sp;
          dst_port = dp;
          seq;
          ack = (seq + 1) land 0xffffffff;
          flags = Tcp_wire.flag_ack;
          window = 4096;
          mss = None;
          wscale = None;
        }
      in
      let b = Tcp_wire.encode ~src ~dst h ~payload:(Bytes.of_string payload) in
      match Tcp_wire.decode ~src ~dst b with
      | Some (h', p) ->
          h'.Tcp_wire.src_port = sp && h'.Tcp_wire.dst_port = dp
          && h'.Tcp_wire.seq = seq
          && Bytes.to_string p = payload
      | None -> false)

let test_tcp_wire_options () =
  let src = ip 1 1 1 1 and dst = ip 2 2 2 2 in
  let h =
    {
      Tcp_wire.src_port = 80;
      dst_port = 12345;
      seq = 1000;
      ack = 0;
      flags = Tcp_wire.flag_syn;
      window = 65535;
      mss = Some 1460;
      wscale = Some 7;
    }
  in
  let b = Tcp_wire.encode ~src ~dst h ~payload:Bytes.empty in
  match Tcp_wire.decode ~src ~dst b with
  | Some (h', _) ->
      Alcotest.(check (option int)) "mss option" (Some 1460) h'.Tcp_wire.mss;
      Alcotest.(check (option int)) "wscale option" (Some 7) h'.Tcp_wire.wscale;
      Alcotest.(check bool) "syn flag" true h'.Tcp_wire.flags.Tcp_wire.syn
  | None -> Alcotest.fail "decode with options failed"

let test_tcp_wire_partial_csum () =
  let src = ip 1 1 1 1 and dst = ip 2 2 2 2 in
  let h =
    {
      Tcp_wire.src_port = 80;
      dst_port = 81;
      seq = 7;
      ack = 9;
      flags = Tcp_wire.flag_ack;
      window = 100;
      mss = None;
      wscale = None;
    }
  in
  let b = Tcp_wire.encode ~src ~dst ~partial_csum:true h ~payload:(Bytes.of_string "data") in
  Alcotest.(check bool) "partial invalid" true (Tcp_wire.decode ~src ~dst b = None);
  Tcp_wire.finalize_csum b;
  Alcotest.(check bool) "finalized valid" true (Tcp_wire.decode ~src ~dst b <> None)

let test_tcp_wire_corruption_rejected =
  qtest "bit flip invalidates checksum"
    QCheck2.Gen.(int_range 0 23)
    (fun pos ->
      let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
      let h =
        {
          Tcp_wire.src_port = 1;
          dst_port = 2;
          seq = 3;
          ack = 4;
          flags = Tcp_wire.flag_ack;
          window = 5;
          mss = None;
          wscale = None;
        }
      in
      let b = Tcp_wire.encode ~src ~dst h ~payload:(Bytes.of_string "abcd") in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      Tcp_wire.decode ~src ~dst b = None)

(* [decode_at] on a segment placed inside a larger buffer agrees with
   [decode] on a copy of it: valid segments with and without options,
   a corrupted byte, and a data offset past the segment's end (with a
   checksum fixed up so only that check can refuse it). *)
let test_tcp_decode_at_agrees =
  qtest "decode_at in place agrees with decode on a copy"
    QCheck2.Gen.(
      let* payload = string_size ~gen:char (int_range 0 1460) in
      let* syn = bool in
      let* prefix = int_range 0 40 and* suffix = int_range 0 40 in
      let* damage = int_range 0 2 in
      let* pos = int_range 0 10_000 in
      let+ junk = char in
      (payload, syn, prefix, suffix, damage, pos, junk))
    (fun (payload, syn, prefix, suffix, damage, pos, junk) ->
      let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
      let h =
        {
          Tcp_wire.src_port = 5001;
          dst_port = 80;
          seq = 0xfffffff0;
          ack = 77;
          flags = (if syn then Tcp_wire.flag_syn_ack else Tcp_wire.flag_ack);
          window = 1234;
          mss = (if syn then Some 1460 else None);
          wscale = (if syn then Some 7 else None);
        }
      in
      let seg = Tcp_wire.encode ~src ~dst h ~payload:(Bytes.of_string payload) in
      let len = Bytes.length seg in
      (match damage with
      | 1 ->
          let i = pos mod len in
          Bytes.set seg i (Char.chr (Char.code (Bytes.get seg i) lxor 0x10))
      | 2 ->
          (* Data offset 60 > len for short segments; refresh the sum. *)
          Bytes.set seg 12 '\xf0';
          Newt_net.Wire.put_u16 seg 16 0;
          let pseudo = Udp.pseudo_header_sum ~src ~dst ~proto:6 ~len in
          Newt_net.Wire.put_u16 seg 16
            (Checksum.finish (Checksum.add_bytes pseudo seg ~off:0 ~len))
      | _ -> ());
      let b = Bytes.make (prefix + len + suffix) junk in
      Bytes.blit seg 0 b prefix len;
      let in_place =
        Option.map
          (fun (h, off) -> (h, Bytes.sub b off (prefix + len - off)))
          (Tcp_wire.decode_at ~src ~dst b ~off:prefix ~len)
      in
      let copied = Tcp_wire.decode ~src ~dst seg in
      in_place = copied && (damage <> 0 || copied <> None))

let test_tcp_decode_at_range_checked () =
  let b = Bytes.create 40 in
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off=%d len=%d" off len)
        (Invalid_argument "Tcp_wire.decode_at")
        (fun () -> ignore (Tcp_wire.decode_at ~src ~dst b ~off ~len)))
    [ (-1, 20); (0, -1); (21, 20); (0, 41); (max_int, 1) ]

(* {2 DNS} *)

let test_dns_query_roundtrip () =
  let q = Dns.query ~id:4242 "www.vu.nl" in
  match Dns.decode (Dns.encode q) with
  | Some m ->
      Alcotest.(check int) "id" 4242 m.Dns.id;
      Alcotest.(check bool) "is a query" false m.Dns.is_response;
      (match m.Dns.questions with
      | [ { Dns.qname; qtype } ] ->
          Alcotest.(check string) "qname" "www.vu.nl" qname;
          Alcotest.(check int) "qtype A" 1 qtype
      | _ -> Alcotest.fail "expected one question")
  | None -> Alcotest.fail "query decode failed"

let test_dns_response_roundtrip () =
  let q = Dns.query ~id:7 "ssh.newtos.example" in
  let r = Dns.response ~query:q (Some (ip 10 0 0 2)) in
  match Dns.decode (Dns.encode r) with
  | Some m ->
      Alcotest.(check bool) "is response" true m.Dns.is_response;
      Alcotest.(check int) "rcode NoError" 0 m.Dns.rcode;
      (match m.Dns.answers with
      | [ a ] ->
          Alcotest.(check string) "answer name" "ssh.newtos.example" a.Dns.name;
          Alcotest.(check bool) "address" true (Addr.Ipv4.equal a.Dns.addr (ip 10 0 0 2))
      | _ -> Alcotest.fail "expected one answer")
  | None -> Alcotest.fail "response decode failed"

let test_dns_nxdomain () =
  let q = Dns.query ~id:9 "no.such.host" in
  let r = Dns.response ~query:q None in
  match Dns.decode (Dns.encode r) with
  | Some m ->
      Alcotest.(check int) "NXDomain" 3 m.Dns.rcode;
      Alcotest.(check int) "no answers" 0 (List.length m.Dns.answers)
  | None -> Alcotest.fail "decode failed"

let test_dns_rejects_garbage =
  qtest "dns decoder survives arbitrary bytes"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 80))
    (fun s ->
      (* Must never raise; may or may not parse. *)
      match Dns.decode (Bytes.of_string s) with Some _ | None -> true)

let test_dns_name_roundtrip =
  qtest "dns qname label roundtrip"
    QCheck2.Gen.(
      map (String.concat ".")
        (list_size (int_range 1 5)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))))
    (fun name ->
      let q = Dns.query ~id:1 name in
      match Dns.decode (Dns.encode q) with
      | Some { Dns.questions = [ { Dns.qname; _ } ]; _ } -> String.equal qname name
      | _ -> false)

(* {2 Seq32} *)

let test_seq32_wraparound () =
  let near_top = Seq32.norm 0xffffff00 in
  let wrapped = Seq32.add near_top 0x200 in
  Alcotest.(check int) "wraps" 0x100 wrapped;
  Alcotest.(check bool) "wrapped is after" true (Seq32.gt wrapped near_top);
  Alcotest.(check int) "diff across wrap" 0x200 (Seq32.diff wrapped near_top);
  Alcotest.(check int) "negative diff" (-0x200) (Seq32.diff near_top wrapped)

let test_seq32_between () =
  Alcotest.(check bool) "inside" true (Seq32.between 5 ~low:3 ~high:10);
  Alcotest.(check bool) "low inclusive" true (Seq32.between 3 ~low:3 ~high:10);
  Alcotest.(check bool) "high exclusive" false (Seq32.between 10 ~low:3 ~high:10);
  let top = Seq32.norm 0xfffffffe in
  Alcotest.(check bool) "window across wrap" true
    (Seq32.between 1 ~low:top ~high:(Seq32.add top 8))

let test_seq32_props =
  qtest "add/diff inverse"
    QCheck2.Gen.(tup2 (int_range 0 0xffffffff) (int_range 0 0xffffff))
    (fun (s, n) ->
      let s = Seq32.norm s in
      Seq32.diff (Seq32.add s n) s = n)

(* {2 Bytebuf} *)

let test_bytebuf_fifo () =
  let b = Bytebuf.create ~capacity:8 in
  Alcotest.(check int) "push partial" 8 (Bytebuf.push b (Bytes.of_string "0123456789") ~off:0 ~len:10);
  Alcotest.(check string) "peek front" "0123" (Bytes.to_string (Bytebuf.peek b ~off:0 ~len:4));
  Alcotest.(check string) "peek mid" "45" (Bytes.to_string (Bytebuf.peek b ~off:4 ~len:2));
  Bytebuf.drop b 4;
  Alcotest.(check int) "room opens" 4 (Bytebuf.available b);
  Alcotest.(check int) "wrap push" 4 (Bytebuf.push b (Bytes.of_string "abcd") ~off:0 ~len:4);
  Alcotest.(check string) "order across wrap" "4567abcd"
    (Bytes.to_string (Bytebuf.pop b ~max:100))

let test_bytebuf_stress =
  qtest "random push/pop keeps byte order"
    QCheck2.Gen.(list_size (int_range 1 60) (string_size ~gen:printable (int_range 0 20)))
    (fun chunks ->
      let b = Bytebuf.create ~capacity:64 in
      let expected = Buffer.create 256 in
      let popped = Buffer.create 256 in
      List.iter
        (fun s ->
          let n = Bytebuf.push b (Bytes.of_string s) ~off:0 ~len:(String.length s) in
          Buffer.add_string expected (String.sub s 0 n);
          if Buffer.length expected mod 3 = 0 then
            Buffer.add_bytes popped (Bytebuf.pop b ~max:7))
        chunks;
      Buffer.add_bytes popped (Bytebuf.pop b ~max:10000);
      String.equal (Buffer.contents expected) (Buffer.contents popped))

let test_bytebuf_bounds () =
  let b = Bytebuf.create ~capacity:4 in
  ignore (Bytebuf.push b (Bytes.of_string "ab") ~off:0 ~len:2);
  Alcotest.check_raises "peek oob" (Invalid_argument "Bytebuf.peek") (fun () ->
      ignore (Bytebuf.peek b ~off:1 ~len:2));
  Alcotest.check_raises "drop oob" (Invalid_argument "Bytebuf.drop") (fun () ->
      Bytebuf.drop b 3)

(* Model test against a reference FIFO (a string). Operation arguments
   are drawn raw and scaled to the buffer's state when applied, so
   every generated sequence is legal and shrinks to a legal one. Pushed
   bytes number the stream (mod 251), so any misordering across growth
   or wrap-around changes what a peek sees. *)
type bytebuf_op =
  | Push of int
  | Peek of int * int
  | Drop of int
  | Pop of int
  | Clear

let show_bytebuf_op = function
  | Push n -> Printf.sprintf "push %d" n
  | Peek (o, l) -> Printf.sprintf "peek %d %d" o l
  | Drop n -> Printf.sprintf "drop %d" n
  | Pop n -> Printf.sprintf "pop %d" n
  | Clear -> "clear"

let test_bytebuf_model =
  let gen =
    QCheck2.Gen.(
      let* cap = oneof [ int_range 1 16; int_range 1 4096 ] in
      let arg = int_range 0 (2 * cap) in
      let op =
        frequency
          [
            (4, map (fun n -> Push n) arg);
            (2, map2 (fun o l -> Peek (o, l)) arg arg);
            (2, map (fun n -> Drop n) arg);
            (2, map (fun n -> Pop n) arg);
            (1, pure Clear);
          ]
      in
      pair (pure cap) (list_size (int_range 1 80) op))
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map show_bytebuf_op ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"bytebuf matches a reference fifo" ~print gen
       (fun (cap, ops) ->
         let b = Bytebuf.create ~capacity:cap in
         let model = ref "" in
         let next = ref 0 in
         let fresh n =
           Bytes.init n (fun i -> Char.chr ((!next + i) mod 251))
         in
         let take n =
           let s = String.sub !model 0 n in
           model := String.sub !model n (String.length !model - n);
           s
         in
         let step op =
           let len = String.length !model in
           (match op with
           | Push n ->
               let expect = min n (cap - len) in
               let pushed = Bytebuf.push b (fresh n) ~off:0 ~len:n in
               if pushed <> expect then
                 QCheck2.Test.fail_reportf "push %d accepted %d, expected %d" n pushed expect;
               model := !model ^ Bytes.sub_string (fresh n) 0 pushed;
               next := !next + pushed
           | Peek (o, l) ->
               let off = o mod (len + 1) in
               let l = l mod (len - off + 1) in
               let got = Bytes.to_string (Bytebuf.peek b ~off ~len:l) in
               if got <> String.sub !model off l then
                 QCheck2.Test.fail_reportf "peek %d %d returned wrong bytes" off l
           | Drop n ->
               let n = n mod (len + 1) in
               Bytebuf.drop b n;
               ignore (take n)
           | Pop n ->
               let got = Bytes.to_string (Bytebuf.pop b ~max:n) in
               if got <> take (min n len) then
                 QCheck2.Test.fail_reportf "pop %d returned wrong bytes" n
           | Clear ->
               Bytebuf.clear b;
               model := "");
           let len = String.length !model in
           if Bytebuf.length b <> len then
             QCheck2.Test.fail_reportf "length %d, model %d" (Bytebuf.length b) len;
           if Bytebuf.available b <> cap - len then
             QCheck2.Test.fail_reportf "available %d <> capacity - length" (Bytebuf.available b);
           if Bytebuf.capacity b <> cap then QCheck2.Test.fail_report "capacity changed";
           if Bytebuf.resident b > cap || Bytebuf.resident b < len then
             QCheck2.Test.fail_reportf "resident %d outside [%d, %d]" (Bytebuf.resident b) len cap
         in
         List.iter step ops;
         (* Whatever is left drains in stream order. *)
         Bytes.to_string (Bytebuf.pop b ~max:cap) = !model))

let test_bytebuf_no_storage () =
  (* Zero-length operations on a buffer that has never held a byte:
     nothing may index (or take a modulus of) the empty storage. *)
  let b = Bytebuf.create ~capacity:16 in
  Alcotest.(check int) "no storage yet" 0 (Bytebuf.resident b);
  Alcotest.(check int) "empty push accepts nothing" 0
    (Bytebuf.push b Bytes.empty ~off:0 ~len:0);
  Alcotest.(check int) "still no storage" 0 (Bytebuf.resident b);
  Alcotest.(check int) "empty peek" 0 (Bytes.length (Bytebuf.peek b ~off:0 ~len:0));
  Bytebuf.drop b 0;
  Alcotest.(check int) "empty pop" 0 (Bytes.length (Bytebuf.pop b ~max:8));
  Alcotest.(check int) "full window advertised" 16 (Bytebuf.available b);
  Alcotest.(check int) "still no storage after all that" 0 (Bytebuf.resident b)

let test_bytebuf_grows_on_use () =
  (* A 256 KiB socket buffer that carries one short RPC costs the RPC,
     not the capacity; filling it doubles up to, never past, the cap. *)
  let cap = 256 * 1024 in
  let b = Bytebuf.create ~capacity:cap in
  ignore (Bytebuf.push b (Bytes.make 256 'r') ~off:0 ~len:256);
  Alcotest.(check int) "sized to the first push" 256 (Bytebuf.resident b);
  ignore (Bytebuf.push b (Bytes.make 100 'r') ~off:0 ~len:100);
  Alcotest.(check int) "doubled" 512 (Bytebuf.resident b);
  Alcotest.(check int) "available is the contract" (cap - 356) (Bytebuf.available b);
  let big = Bytes.make cap 'x' in
  Alcotest.(check int) "fills to capacity" (cap - 356) (Bytebuf.push b big ~off:0 ~len:cap);
  Alcotest.(check int) "clamped at capacity" cap (Bytebuf.resident b)

(* {2 Header codecs against the octet reference}

   Ethernet and ARP write MAC addresses with [Addr.Mac.write]/[read].
   The reference is the octet view: every MAC field on the wire must
   hold [Addr.Mac.to_octets] of the address, and decoding must give
   back addresses whose octets are the ones generated. *)

let gen_octets = QCheck2.Gen.(array_size (return 6) (int_bound 255))

let octets_at b off = Array.init 6 (fun i -> Char.code (Bytes.get b (off + i)))

let test_ethernet_header_codec =
  qtest "ethernet header matches the octet reference"
    QCheck2.Gen.(quad gen_octets gen_octets (int_bound 0xffff) (int_bound 20))
    (fun (dst, src, code, off) ->
      let h =
        {
          Ethernet.dst = Addr.Mac.of_octets dst;
          src = Addr.Mac.of_octets src;
          ethertype = Ethernet.Unknown code;
        }
      in
      let b = Bytes.make (off + Ethernet.header_size) '\x5a' in
      Ethernet.encode_header h b ~off;
      octets_at b off = dst
      && octets_at b (off + 6) = src
      &&
      match Ethernet.decode_header b ~off with
      | Some h' ->
          Addr.Mac.to_octets h'.Ethernet.dst = dst
          && Addr.Mac.to_octets h'.Ethernet.src = src
          && Ethernet.ethertype_code h'.Ethernet.ethertype = code
      | None -> false)

let test_arp_packet_codec =
  qtest "arp packet matches the octet reference"
    QCheck2.Gen.(quad bool gen_octets gen_octets (pair int32 int32))
    (fun (request, sender, target, (sip, tip)) ->
      let p =
        {
          Arp.op = (if request then Arp.Request else Arp.Reply);
          sender_mac = Addr.Mac.of_octets sender;
          sender_ip = Addr.Ipv4.of_int32 sip;
          target_mac = Addr.Mac.of_octets target;
          target_ip = Addr.Ipv4.of_int32 tip;
        }
      in
      let b = Arp.encode p in
      octets_at b 8 = sender
      && octets_at b 18 = target
      &&
      match Arp.decode b with
      | Some p' ->
          p'.Arp.op = p.Arp.op
          && Addr.Mac.to_octets p'.Arp.sender_mac = sender
          && Addr.Mac.to_octets p'.Arp.target_mac = target
          && Addr.Ipv4.equal p'.Arp.sender_ip p.Arp.sender_ip
          && Addr.Ipv4.equal p'.Arp.target_ip p.Arp.target_ip
      | None -> false)

let suite =
  [
    ("ipv4 address parse/print", `Quick, test_ipv4_roundtrip);
    ("ipv4 prefix matching", `Quick, test_ipv4_prefix);
    ("mac address roundtrip", `Quick, test_mac_roundtrip);
    ("checksum RFC 1071 vector", `Quick, test_checksum_known_vector);
    test_checksum_self_validates;
    ("checksum odd length", `Quick, test_checksum_odd_length);
    test_checksum_matches_reference;
    test_checksum_chained_partials;
    ("checksum range checked", `Quick, test_checksum_range_checked);
    ("ethernet frame roundtrip", `Quick, test_ethernet_roundtrip);
    ("ethernet runt frame rejected", `Quick, test_ethernet_runt);
    ("arp packet roundtrip", `Quick, test_arp_roundtrip);
    test_ethernet_header_codec;
    test_arp_packet_codec;
    ("arp cache resolves with callbacks", `Quick, test_arp_cache_resolution);
    ("arp cache answers requests for our ip", `Quick, test_arp_cache_answers_requests);
    ("arp pending queue is bounded", `Quick, test_arp_pending_overflow_drops);
    ("icmp destination unreachable", `Quick, test_icmp_dest_unreachable);
    ("icmp oversized echo rejected", `Quick, test_icmp_oversized_echo_rejected);
    ("arp cache flush (restart)", `Quick, test_arp_flush);
    ("ipv4 header roundtrip", `Quick, test_ipv4_header_roundtrip);
    ("ipv4 corrupt header rejected", `Quick, test_ipv4_corrupt_checksum_rejected);
    ("route longest prefix match", `Quick, test_route_longest_prefix);
    ("icmp echo roundtrip + reply", `Quick, test_icmp_echo_roundtrip);
    ("icmp corrupt rejected", `Quick, test_icmp_bad_checksum);
    ("udp datagram roundtrip", `Quick, test_udp_roundtrip);
    ("udp pseudo-header mismatch rejected", `Quick, test_udp_wrong_pseudo_header_rejected);
    ("udp zero checksum means none", `Quick, test_udp_zero_checksum_accepted);
    ("udp checksum offload finalize", `Quick, test_udp_offload_finalize);
    test_tcp_wire_roundtrip;
    ("tcp options mss+wscale", `Quick, test_tcp_wire_options);
    ("tcp partial checksum offload", `Quick, test_tcp_wire_partial_csum);
    test_tcp_wire_corruption_rejected;
    test_tcp_decode_at_agrees;
    ("tcp decode_at range checked", `Quick, test_tcp_decode_at_range_checked);
    ("dns query roundtrip", `Quick, test_dns_query_roundtrip);
    ("dns response roundtrip", `Quick, test_dns_response_roundtrip);
    ("dns nxdomain", `Quick, test_dns_nxdomain);
    test_dns_rejects_garbage;
    test_dns_name_roundtrip;
    ("seq32 wraparound compares", `Quick, test_seq32_wraparound);
    ("seq32 between windows", `Quick, test_seq32_between);
    test_seq32_props;
    ("bytebuf fifo with wraparound", `Quick, test_bytebuf_fifo);
    test_bytebuf_stress;
    ("bytebuf bounds checking", `Quick, test_bytebuf_bounds);
    test_bytebuf_model;
    ("bytebuf zero-length ops before any storage", `Quick, test_bytebuf_no_storage);
    ("bytebuf storage grows on use, capped", `Quick, test_bytebuf_grows_on_use);
  ]
