(* Surviving a ping of death.

   "NewtOS survives attacks similar to the famous ping of death without
   crashing the entire system." (Section V)

   The peer fires a volley of malformed and oversized ICMP datagrams at
   the host. The IP server's ICMP decoder rejects them (bounded echo
   payloads, checksum validation); legitimate pings keep being
   answered; and even if the attack had crashed the IP server, the
   reincarnation machinery would have contained the damage to one
   component — which we also demonstrate by injecting exactly that.

   Run: dune exec examples/ping_of_death.exe *)

module Host = Newt_core.Host
module Apps = Newt_sockets.Apps
module Sink = Newt_stack.Sink
module Time = Newt_sim.Time
module Link = Newt_nic.Link
module Addr = Newt_net.Addr
module Ethernet = Newt_net.Ethernet
module Ipv4 = Newt_net.Ipv4
module Wire = Newt_net.Wire
module Checksum = Newt_net.Checksum

(* Forge a hostile ICMP echo request: total length field lies, payload
   is garbage, the classic reassembly-overflow shape. *)
let forged_frame ~src ~dst ~dst_mac ~src_mac ~claim_len =
  let icmp = Bytes.create 1200 in
  Wire.put_u8 icmp 0 8 (* echo request *);
  Wire.put_u8 icmp 1 0;
  Wire.put_u16 icmp 2 0;
  Wire.put_u32 icmp 4 0xdeadbeef;
  for i = 8 to 1199 do
    Bytes.set icmp i (Char.chr (i land 0xff))
  done;
  Wire.put_u16 icmp 2 (Checksum.bytes icmp ~off:0 ~len:1200);
  let pkt = Bytes.create (20 + 1200) in
  Ipv4.encode_header
    { Ipv4.src; dst; protocol = Ipv4.Icmp; ttl = 64; ident = 666; total_len = claim_len }
    pkt ~off:0;
  Bytes.blit icmp 0 pkt 20 1200;
  Ethernet.frame
    { Ethernet.dst = dst_mac; src = src_mac; ethertype = Ethernet.Ipv4 }
    ~payload:pkt

(* A well-formed echo request, for contrast. *)
let legit_ping ~src ~dst ~dst_mac ~src_mac =
  let icmp =
    Newt_net.Icmp.encode
      (Newt_net.Icmp.Echo_request { ident = 7; seq = 1; data = Bytes.of_string "hello" })
  in
  let pkt =
    Ipv4.packet
      { Ipv4.src; dst; protocol = Ipv4.Icmp; ttl = 64; ident = 1; total_len = 0 }
      ~payload:icmp
  in
  Ethernet.frame
    { Ethernet.dst = dst_mac; src = src_mac; ethertype = Ethernet.Ipv4 }
    ~payload:pkt

let () =
  let host = Host.create () in
  let peer = Host.sink host 0 in
  Sink.sink_tcp peer ~port:5001 ~on_bytes:(fun ~at:_ _ -> ());
  (* An SSH-like server on the host, so inbound reachability can be
     probed after the crash. *)
  Apps.Echo_listener.start (Host.sc host) ~app:(Host.app host) ~port:22;
  let iperf =
    Apps.Iperf.start (Host.machine host) ~sc:(Host.sc host) ~app:(Host.app host)
      ~dst:(Host.sink_addr host 0) ~port:5001 ~until:(Time.of_seconds 3.0) ()
  in

  (* First a legitimate ping, answered by the IP server's ICMP. *)
  Host.at host (Time.of_seconds 0.5) (fun () ->
      ignore
        (Link.transmit (Host.link host 0) ~from:Link.Right
           (legit_ping
              ~src:(Host.sink_addr host 0)
              ~dst:(Host.local_addr host 0)
              ~dst_mac:(Newt_nic.Mq_e1000.mac (Host.nic host 0))
              ~src_mac:(Addr.Mac.of_index 200))));

  (* The attack: 200 forged datagrams, lying length fields, at t=1s. *)
  Host.at host (Time.of_seconds 1.0) (fun () ->
      print_endline ">>> t=1s: ping-of-death volley (forged oversized ICMP)";
      for i = 0 to 199 do
        let frame =
          forged_frame
            ~src:(Addr.Ipv4.v 66 66 66 (i land 0xff))
            ~dst:(Host.local_addr host 0)
            ~dst_mac:(Newt_nic.Mq_e1000.mac (Host.nic host 0))
            ~src_mac:(Addr.Mac.of_index 666) ~claim_len:65535
        in
        ignore (Link.transmit (Host.link host 0) ~from:Link.Right frame)
      done);

  Host.run host ~until:(Time.of_seconds 3.5);

  Printf.printf "legitimate ping answered: %d echo repl%s\n"
    (Newt_stack.Ip_srv.icmp_echoes_answered (Host.ip_srv host))
    (if Newt_stack.Ip_srv.icmp_echoes_answered (Host.ip_srv host) = 1 then "y" else "ies");
  Printf.printf "iperf kept flowing: %d bytes sent\n" (Apps.Iperf.bytes_sent iperf);
  Printf.printf "IP server survived: restarts=%d (0 = the decoder just rejected the garbage)\n"
    (Host.restarts_of host Host.C_ip);

  (* And if a future bug DID crash IP, the damage stays contained: *)
  print_endline ">>> now injecting an actual IP crash (as if the attack had found a bug)";
  Host.at host (Time.of_seconds 3.6) (fun () -> Host.kill_component host Host.C_ip);
  let reachable = ref false in
  Host.at host (Time.of_seconds 6.0) (fun () ->
      Host.probe_reachable host ~port:22 ~timeout:(Time.of_seconds 1.0) (fun ok ->
          reachable := ok));
  Host.run host ~until:(Time.of_seconds 7.5);
  Printf.printf "after the crash: IP restarts=%d, host reachable again: %b\n"
    (Host.restarts_of host Host.C_ip) !reachable;
  print_endline "The rest of the system never stopped."
