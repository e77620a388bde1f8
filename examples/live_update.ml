(* Live-update pause: pause the UDP server for 50 ms while the system
   carries TCP traffic — the traffic side of the MS11-083 scenario the
   paper opens with (Section V). No code is swapped and no state moves
   (ROADMAP item 15):

     "In November 2011, Microsoft announced a critical vulnerability in
      the UDP part of Windows networking stack... In this respect,
      NewtOS is much more resilient... we are able to replace the buggy
      UDP component without rebooting. Given the fact that most
      Internet traffic is carried by the TCP protocol, this traffic
      remains completely unaffected by the replacement."

   Run: dune exec examples/live_update.exe *)

module Host = Newt_core.Host
module Apps = Newt_sockets.Apps
module Sink = Newt_stack.Sink
module Time = Newt_sim.Time
module Series = Newt_sim.Series

let () =
  let host = Host.create () in
  let peer = Host.sink host 0 in
  let series = Series.create ~bin_width:(Time.of_seconds 0.25) in
  Sink.sink_tcp peer ~port:5001 ~on_bytes:(fun ~at n -> Series.add series at n);
  Sink.serve_dns peer ~zone:(fun _ -> Some (Host.sink_addr host 0)) ();

  (* TCP traffic that must not be disturbed. *)
  let _iperf =
    Apps.Iperf.start (Host.machine host) ~sc:(Host.sc host) ~app:(Host.app host)
      ~dst:(Host.sink_addr host 0) ~port:5001 ~until:(Time.of_seconds 5.0) ()
  in
  (* A resolver using the (about to be patched) UDP server. *)
  let dns =
    Apps.Dns_client.start (Host.machine host) ~sc:(Host.sc host) ~app:(Host.app host)
      ~dst:(Host.sink_addr host 0) ~timeout:(Time.of_seconds 0.5) ()
  in

  Host.at host (Time.of_seconds 2.0) (fun () ->
      print_endline ">>> t=2.0s: pausing the UDP server for a live update";
      Host.live_update host Host.C_udp);

  Host.run host ~until:(Time.of_seconds 5.5);

  print_endline "TCP bitrate during the UDP update (250 ms bins):";
  Array.iter
    (fun (t, mbps) ->
      Printf.printf "  %5.2fs %8.1f Mbps |%s\n" t mbps
        (String.make (int_of_float (mbps /. 25.0)) '#'))
    (Series.mbps series ~upto:(Time.of_seconds 5.0) ());

  Printf.printf "UDP server version counter: %d (bumped by the pause; no crash, no restart)\n"
    (Newt_stack.Proc.version (Host.proc_of host Host.C_udp));
  Printf.printf
    "DNS resolver: %d/%d queries answered, %d socket reopens, longest outage %d \
     queries — the pause queued its messages and nothing was lost\n"
    (Apps.Dns_client.answered dns) (Apps.Dns_client.queries dns)
    (Apps.Dns_client.socket_reopens dns)
    (Apps.Dns_client.max_consecutive_failures dns);
  print_endline
    "TCP never noticed: the server kept its state and its channels stayed \
     established through the pause (Section V)."
