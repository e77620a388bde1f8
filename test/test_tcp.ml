(* Behavioural tests for the TCP engine: two instances wired
   back-to-back through the discrete-event engine, with real wire
   encoding on every segment and a configurable drop filter. *)

module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Rng = Newt_sim.Rng
module Addr = Newt_net.Addr
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire

let ip_a = Addr.Ipv4.v 10 0 0 1
let ip_b = Addr.Ipv4.v 10 0 0 2

type world = {
  engine : Engine.t;
  tcp_a : Tcp.t;
  tcp_b : Tcp.t;
  (* [filter ~from hdr payload_len] decides whether a segment is dropped. *)
  mutable filter : from:[ `A | `B ] -> Tcp_wire.header -> int -> bool;
  (* Adversarial wire conditions. *)
  mutable mangle : Bytes.t -> unit;  (* corrupt raw bytes in place *)
  mutable jitter : unit -> Time.cycles;  (* extra per-segment latency *)
  mutable duplicate : unit -> bool;  (* deliver the segment twice *)
  mutable segs_seen : (Tcp_wire.header * int) list;  (* newest first *)
}

let make_world ?(latency_us = 50.0) ?config_a ?config_b () =
  let engine = Engine.create ~seed:7 () in
  let rng = Rng.split (Engine.rng engine) in
  let latency = Time.of_micros latency_us in
  let world = ref None in
  let env ~me ~peer_input =
    {
      Tcp.now = (fun () -> Engine.now engine);
      set_timer =
        (fun delay f ->
          let h = Engine.schedule engine delay f in
          fun () -> Engine.cancel h);
      emit =
        (fun ~src ~dst hdr ~payload ->
          let w = Option.get !world in
          w.segs_seen <- (hdr, Bytes.length payload) :: w.segs_seen;
          if not (w.filter ~from:me hdr (Bytes.length payload)) then begin
            (* Encode to real bytes here, decode at the far end: every
               segment on the "wire" exercises the codec. *)
            let raw = Tcp_wire.encode ~src ~dst hdr ~payload in
            w.mangle raw;
            let deliver () =
              ignore
                (Engine.schedule engine
                   (latency + w.jitter ())
                   (fun () ->
                     (* A corrupted segment fails its checksum and is
                        dropped, as a real NIC/stack would. *)
                     let len = Bytes.length raw in
                     match Tcp_wire.decode_at ~src ~dst raw ~off:0 ~len with
                     | Some (hdr', off) ->
                         peer_input ~src ~dst hdr' ~payload:raw ~off ~len:(len - off)
                     | None -> ()))
            in
            deliver ();
            if w.duplicate () then deliver ()
          end);
      random = (fun bound -> Rng.int rng bound);
    }
  in
  let tcp_b_cell = ref None in
  let tcp_a =
    Tcp.create
      ?config:config_a
      (env ~me:`A ~peer_input:(fun ~src ~dst hdr ~payload ~off ~len ->
           Tcp.input (Option.get !tcp_b_cell) ~src ~dst hdr ~payload ~off ~len))
  in
  let tcp_b =
    Tcp.create
      ?config:config_b
      (env ~me:`B ~peer_input:(fun ~src ~dst hdr ~payload ~off ~len ->
           Tcp.input tcp_a ~src ~dst hdr ~payload ~off ~len))
  in
  tcp_b_cell := Some tcp_b;
  let w =
    {
      engine;
      tcp_a;
      tcp_b;
      filter = (fun ~from:_ _ _ -> false);
      mangle = (fun _ -> ());
      jitter = (fun () -> 0);
      duplicate = (fun () -> false);
      segs_seen = [];
    }
  in
  world := Some w;
  w

(* A sink application: accepts one connection on port 80 and accumulates
   everything it receives. *)
let sink_app w ~port =
  let received = Buffer.create 4096 in
  let eof = ref false in
  Tcp.listen w.tcp_b ~port ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              Buffer.add_bytes received (Tcp.recv pcb ~max:1_000_000);
              if Tcp.recv_eof pcb then begin
                eof := true;
                Tcp.close pcb
              end
          | Tcp.Connected | Tcp.Accepted | Tcp.Writable | Tcp.Closed_normally
          | Tcp.Reset ->
              ()));
  (received, eof)

(* A source application: connects and streams [total] patterned bytes. *)
let source_app w ~port ~total =
  let pattern i = Char.chr (((i * 31) + (i / 251)) land 0xff) in
  let sent = ref 0 in
  let connected = ref false in
  let closed = ref false in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:port () in
  let pump pcb =
    let continue = ref true in
    while !sent < total && !continue do
      let n = min 8192 (total - !sent) in
      let chunk = Bytes.init n (fun i -> pattern (!sent + i)) in
      let accepted = Tcp.send pcb chunk ~off:0 ~len:n in
      sent := !sent + accepted;
      if accepted < n then continue := false
    done;
    if !sent >= total then Tcp.close pcb
  in
  Tcp.set_handler pcb (fun ev ->
      match ev with
      | Tcp.Connected ->
          connected := true;
          pump pcb
      | Tcp.Writable -> if !sent < total then pump pcb
      | Tcp.Closed_normally -> closed := true
      | Tcp.Accepted | Tcp.Readable | Tcp.Reset -> ());
  (pcb, sent, connected, closed)

let expected_stream total =
  String.init total (fun i -> Char.chr (((i * 31) + (i / 251)) land 0xff))

let test_handshake () =
  let w = make_world () in
  let accepted = ref false in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun _ -> accepted := true);
  let connected = ref false in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Connected then connected := true);
  Engine.run ~until:(Time.of_seconds 1.0) w.engine;
  Alcotest.(check bool) "client connected" true !connected;
  Alcotest.(check bool) "server accepted" true !accepted;
  Alcotest.(check bool) "client established" true (Tcp.state pcb = Tcp.Established);
  Alcotest.(check int) "negotiated mss" 1460 (Tcp.effective_mss pcb)

let test_bulk_transfer () =
  let w = make_world () in
  let total = 1_000_000 in
  let received, eof = sink_app w ~port:80 in
  let _pcb, sent, _, closed = source_app w ~port:80 ~total in
  Engine.run ~until:(Time.of_seconds 30.0) w.engine;
  Alcotest.(check int) "all bytes pushed" total !sent;
  Alcotest.(check int) "all bytes received" total (Buffer.length received);
  Alcotest.(check bool) "stream intact" true
    (String.equal (Buffer.contents received) (expected_stream total));
  Alcotest.(check bool) "eof delivered" true !eof;
  Alcotest.(check bool) "sender saw clean close" true !closed;
  Alcotest.(check int) "no retransmits on lossless link" 0 (Tcp.stats w.tcp_a).Tcp.retransmits

let test_connection_close_states () =
  let w = make_world () in
  let received, _eof = sink_app w ~port:80 in
  let pcb, _, _, _ = source_app w ~port:80 ~total:100 in
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  ignore received;
  Alcotest.(check bool) "client fully closed" true (Tcp.state pcb = Tcp.Closed);
  Alcotest.(check int) "client table empty" 0 (Tcp.connection_count w.tcp_a);
  Alcotest.(check int) "server table empty" 0 (Tcp.connection_count w.tcp_b)

let test_rst_on_refused_port () =
  let w = make_world () in
  let got_reset = ref false in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:9999 () in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Reset then got_reset := true);
  Engine.run ~until:(Time.of_seconds 1.0) w.engine;
  Alcotest.(check bool) "connection refused" true !got_reset;
  Alcotest.(check bool) "pcb closed" true (Tcp.state pcb = Tcp.Closed)

let test_loss_recovery () =
  let w = make_world () in
  let total = 400_000 in
  (* Drop 2% of data-bearing segments, deterministically. *)
  let drop_rng = Rng.create 99 in
  w.filter <-
    (fun ~from hdr len ->
      ignore hdr;
      from = `A && len > 0 && Rng.int drop_rng 100 < 2);
  let received, _eof = sink_app w ~port:80 in
  let _pcb, sent, _, _ = source_app w ~port:80 ~total in
  Engine.run ~until:(Time.of_seconds 120.0) w.engine;
  Alcotest.(check int) "all bytes pushed" total !sent;
  Alcotest.(check bool) "stream intact despite loss" true
    (String.equal (Buffer.contents received) (expected_stream total));
  Alcotest.(check bool) "retransmissions happened" true
    ((Tcp.stats w.tcp_a).Tcp.retransmits > 0)

let test_fast_retransmit_on_single_loss () =
  let w = make_world () in
  let total = 200_000 in
  (* Drop exactly one data segment mid-stream. *)
  let dropped = ref false in
  w.filter <-
    (fun ~from hdr len ->
      if from = `A && len > 0 && (not !dropped) && hdr.Tcp_wire.seq land 0xffff > 30000
      then begin
        dropped := true;
        true
      end
      else false);
  let received, _eof = sink_app w ~port:80 in
  let _pcb, _, _, _ = source_app w ~port:80 ~total in
  let t0_retx = (Tcp.stats w.tcp_a).Tcp.retransmits in
  Engine.run ~until:(Time.of_seconds 30.0) w.engine;
  Alcotest.(check bool) "one segment was dropped" true !dropped;
  Alcotest.(check bool) "stream recovered" true
    (String.equal (Buffer.contents received) (expected_stream total));
  let retx = (Tcp.stats w.tcp_a).Tcp.retransmits - t0_retx in
  Alcotest.(check bool) "recovered with few retransmits (fast rtx)" true
    (retx >= 1 && retx <= 3)

let test_segments_respect_mss () =
  let w = make_world () in
  let received, _eof = sink_app w ~port:80 in
  let _pcb, _, _, _ = source_app w ~port:80 ~total:100_000 in
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  ignore received;
  List.iter
    (fun (_, len) ->
      Alcotest.(check bool) "segment <= mss" true (len <= 1460))
    w.segs_seen

let test_tso_emits_oversized_segments () =
  let config_a = { Tcp.default_config with Tcp.tso_segment = 65535 } in
  let w = make_world ~config_a () in
  let received, _eof = sink_app w ~port:80 in
  let _pcb, _, _, _ = source_app w ~port:80 ~total:500_000 in
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  (* Without a TSO-splitting NIC between them, the receiver still copes:
     segments bigger than the MSS arrive and are consumed whole. *)
  Alcotest.(check int) "bytes received" 500_000 (Buffer.length received);
  Alcotest.(check bool) "some oversized segments were emitted" true
    (List.exists (fun (_, len) -> len > 1460) w.segs_seen)

let test_receiver_window_bounds_flight () =
  (* A tiny receive buffer on B must throttle A's in-flight data. *)
  let config_b = { Tcp.default_config with Tcp.rcv_buf = 8 * 1024; use_wscale = false } in
  let w = make_world ~config_b () in
  let received = Buffer.create 4096 in
  (* A slow reader: drains at most 2 KiB per readable event. *)
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable -> Buffer.add_bytes received (Tcp.recv pcb ~max:2048)
          | _ -> ()));
  let _pcb, _, _, _ = source_app w ~port:80 ~total:100_000 in
  Engine.run ~until:(Time.of_seconds 60.0) w.engine;
  (* Every data segment must have fit in the 8 KiB window. *)
  List.iter
    (fun (hdr, len) ->
      if len > 0 && not hdr.Tcp_wire.flags.Tcp_wire.syn then
        Alcotest.(check bool) "segment within window" true (len <= 8 * 1024))
    w.segs_seen;
  Alcotest.(check bool) "transfer made progress" true (Buffer.length received > 50_000)

let test_bidirectional_transfer () =
  let w = make_world () in
  let a_received = Buffer.create 1024 and b_received = Buffer.create 1024 in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      (* Echo-ish server: sends its own 50 KB, receives client's. *)
      let to_send = ref 50_000 in
      let pump pcb =
        while !to_send > 0 && Tcp.send_space pcb > 0 do
          let n = min 4096 !to_send in
          let accepted = Tcp.send pcb (Bytes.make n 'S') ~off:0 ~len:n in
          to_send := !to_send - accepted;
          if accepted = 0 then to_send := max !to_send 1 (* break below *)
        done
      in
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable -> Buffer.add_bytes b_received (Tcp.recv pcb ~max:1_000_000)
          | Tcp.Writable -> pump pcb
          | _ -> ());
      pump pcb);
  let to_send = ref 50_000 in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  let pump pcb =
    let progress = ref true in
    while !to_send > 0 && !progress do
      let n = min 4096 !to_send in
      let accepted = Tcp.send pcb (Bytes.make n 'C') ~off:0 ~len:n in
      to_send := !to_send - accepted;
      if accepted = 0 then progress := false
    done
  in
  Tcp.set_handler pcb (fun ev ->
      match ev with
      | Tcp.Connected -> pump pcb
      | Tcp.Writable -> pump pcb
      | Tcp.Readable -> Buffer.add_bytes a_received (Tcp.recv pcb ~max:1_000_000)
      | _ -> ());
  Engine.run ~until:(Time.of_seconds 30.0) w.engine;
  Alcotest.(check int) "client got server bytes" 50_000 (Buffer.length a_received);
  Alcotest.(check int) "server got client bytes" 50_000 (Buffer.length b_received);
  Alcotest.(check bool) "server bytes are S" true
    (String.for_all (Char.equal 'S') (Buffer.contents a_received));
  Alcotest.(check bool) "client bytes are C" true
    (String.for_all (Char.equal 'C') (Buffer.contents b_received))

let test_srtt_estimation () =
  let w = make_world ~latency_us:500.0 () in
  let received, _eof = sink_app w ~port:80 in
  let pcb, _, _, _ = source_app w ~port:80 ~total:500_000 in
  Engine.run ~until:(Time.of_seconds 20.0) w.engine;
  ignore received;
  match Tcp.srtt pcb with
  | Some srtt ->
      let rtt_cycles = Time.of_micros 1000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "srtt %d within 3x of true rtt %d" srtt rtt_cycles)
        true
        (srtt > rtt_cycles / 3 && srtt < 3 * rtt_cycles)
  | None -> Alcotest.fail "no rtt estimate after bulk transfer"

let test_shutdown_all_kills_connections () =
  let w = make_world () in
  let received, _eof = sink_app w ~port:80 in
  let pcb, _, _, _ = source_app w ~port:80 ~total:10_000_000 in
  let got_reset = ref false in
  (* Stop mid-transfer: with ~100 us RTT a 10 MB stream takes ~4 ms. *)
  Engine.run ~until:(Time.of_micros 2000.0) w.engine;
  ignore received;
  Alcotest.(check bool) "established mid-transfer" true (Tcp.state pcb = Tcp.Established);
  (* The TCP server on B "crashes". *)
  Tcp.shutdown_all w.tcp_b;
  Alcotest.(check int) "b table empty" 0 (Tcp.connection_count w.tcp_b);
  Alcotest.(check (list int)) "b listeners gone" [] (Tcp.listening_ports w.tcp_b);
  (* A keeps transmitting; B's fresh instance answers with RST. *)
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Reset then got_reset := true);
  Engine.run ~until:(Time.of_seconds 5.0) w.engine;
  Alcotest.(check bool) "sender connection reset" true !got_reset

let test_listening_state_is_serializable () =
  let w = make_world () in
  Tcp.listen w.tcp_b ~port:22 ~on_accept:(fun _ -> ());
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun _ -> ());
  Alcotest.(check (list int)) "ports" [ 22; 80 ] (Tcp.listening_ports w.tcp_b);
  (* Crash and restore, as the TCP server does via the storage server. *)
  let saved = Tcp.listening_ports w.tcp_b in
  Tcp.shutdown_all w.tcp_b;
  List.iter (fun port -> Tcp.listen w.tcp_b ~port ~on_accept:(fun _ -> ())) saved;
  Alcotest.(check (list int)) "ports restored" [ 22; 80 ] (Tcp.listening_ports w.tcp_b);
  (* And the restored listener accepts connections. *)
  let connected = ref false in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:22 () in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Connected then connected := true);
  Engine.run ~until:(Time.of_seconds 1.0) w.engine;
  Alcotest.(check bool) "reconnect after restart" true !connected

let test_established_tuples_for_conntrack () =
  let w = make_world () in
  let received, _eof = sink_app w ~port:80 in
  let _pcb, _, _, _ = source_app w ~port:80 ~total:10_000_000 in
  Engine.run ~until:(Time.of_micros 2000.0) w.engine;
  ignore received;
  (match Tcp.established_tuples w.tcp_a with
  | [ (lip, _, rip, rport) ] ->
      Alcotest.(check bool) "local ip" true (Addr.Ipv4.equal lip ip_a);
      Alcotest.(check bool) "remote ip" true (Addr.Ipv4.equal rip ip_b);
      Alcotest.(check int) "remote port" 80 rport
  | l -> Alcotest.fail (Printf.sprintf "expected 1 tuple, got %d" (List.length l)))

(* Table order. Crash recovery re-tracks [established_tuples] in the
   order the connection table folds, so that order must stay the one
   a generic [Hashtbl] gives. Random resurrections (established),
   active opens (SYN_SENT, in the table but not listed), aborts and
   whole-engine crashes run against a mirror in a generic [Hashtbl]
   (same initial size, same inserts and removals in the same order),
   past the table's first resize; the listing must equal the mirror's
   fold after every call. A table that folds in another order (a
   [Hashtbl.Make] with a cheaper hash, say) fails it. *)
type conn_op =
  | Resurrect of int list
  | Open of int
  | Abort_nth of int
  | Crash

let tuple_universe =
  Array.init 400 (fun i ->
      (Addr.Ipv4.v 10 0 (i mod 2) 1, 1024 + i, Addr.Ipv4.v 10 9 (i mod 3) 2, if i mod 5 = 0 then 443 else 80))

let connections_list_in_generic_table_order ops =
  let env =
    {
      Tcp.now = (fun () -> 0);
      set_timer = (fun _ _ () -> ());
      emit = (fun ~src:_ ~dst:_ _ ~payload:_ -> ());
      random = (fun _ -> 0);
    }
  in
  let tcp = Tcp.create env in
  let m = Hashtbl.create 64 in
  let opened = ref [] in
  List.for_all
    (fun op ->
      (match op with
      | Resurrect idx ->
          let tuples = List.map (fun i -> tuple_universe.(i)) idx in
          Tcp.resurrect tcp tuples;
          List.iter (fun k -> if not (Hashtbl.mem m k) then Hashtbl.replace m k true) tuples
      | Open i ->
          let ((lip, lp, rip, rp) as k) = tuple_universe.(i) in
          if not (Hashtbl.mem m k) then begin
            opened := (k, Tcp.connect tcp ~src:lip ~dst:rip ~dst_port:rp ~src_port:lp ()) :: !opened;
            Hashtbl.replace m k false
          end
      | Abort_nth n -> (
          match !opened with
          | [] -> ()
          | l ->
              let k, pcb = List.nth l (n mod List.length l) in
              Tcp.abort pcb;
              Hashtbl.remove m k;
              opened := List.filter (fun (k', _) -> k' <> k) l)
      | Crash ->
          Tcp.shutdown_all tcp;
          Hashtbl.reset m;
          opened := []);
      Tcp.established_tuples tcp
      = Hashtbl.fold (fun k established acc -> if established then k :: acc else acc) m []
      && Tcp.connection_count tcp = Hashtbl.length m)
    ops

let test_connection_table_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"connections list in a generic table's fold order"
       QCheck2.Gen.(
         list_size (int_range 1 300)
           (frequency
              [
                (40, map (fun l -> Resurrect l) (list_size (int_range 1 8) (int_range 0 399)));
                (12, map (fun i -> Open i) (int_range 0 399));
                (7, map (fun n -> Abort_nth n) (int_range 0 99));
                (1, pure Crash);
              ]))
       connections_list_in_generic_table_order)

let test_duplicate_listen_rejected () =
  let w = make_world () in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun _ -> ());
  Alcotest.check_raises "double bind" (Invalid_argument "Tcp.listen: port 80 already bound")
    (fun () -> Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun _ -> ()))

let test_zero_window_probe_recovers_lost_update () =
  (* The receiver's window closes; its reopening window-update ACK is
     lost. Only the persist timer (zero-window probe) can unstick the
     sender — RFC 1122's deadlock scenario. *)
  let config_b = { Tcp.default_config with Tcp.rcv_buf = 4096; use_wscale = false } in
  let w = make_world ~config_b () in
  let window_closed = ref false and update_dropped = ref false in
  w.filter <-
    (fun ~from hdr len ->
      if from = `B && len = 0 && not hdr.Tcp_wire.flags.Tcp_wire.syn then begin
        if hdr.Tcp_wire.window = 0 then window_closed := true;
        if !window_closed && (not !update_dropped) && hdr.Tcp_wire.window > 0 then begin
          (* The reopening update: lose it. *)
          update_dropped := true;
          true
        end
        else false
      end
      else false);
  let received = Buffer.create 4096 in
  let server_pcb = ref None in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      server_pcb := Some pcb;
      (* The server application does not read at first. *)
      Tcp.set_handler pcb (fun _ -> ()));
  let _pcb, sent, _, _ = source_app w ~port:80 ~total:32_768 in
  (* Let the window fill and close. *)
  Engine.run ~until:(Time.of_seconds 2.0) w.engine;
  Alcotest.(check bool) "window closed" true !window_closed;
  Alcotest.(check bool) "sender stalled below total" true (!sent < 32_768 || Buffer.length received = 0);
  (* Now the app drains; the update gets dropped; the probe must save us. *)
  (match !server_pcb with
  | Some pcb ->
      Tcp.set_handler pcb (fun ev ->
          if ev = Tcp.Readable then
            Buffer.add_bytes received (Tcp.recv pcb ~max:1_000_000));
      Buffer.add_bytes received (Tcp.recv pcb ~max:1_000_000)
  | None -> Alcotest.fail "no server pcb");
  Engine.run ~until:(Time.of_seconds 90.0) w.engine;
  Alcotest.(check bool) "window update was dropped" true !update_dropped;
  Alcotest.(check int) "all data eventually delivered" 32_768 (Buffer.length received);
  Alcotest.(check bool) "stream intact" true
    (String.equal (Buffer.contents received) (expected_stream 32_768))

let test_abort_sends_rst () =
  let w = make_world () in
  let server_reset = ref false in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev -> if ev = Tcp.Reset then server_reset := true));
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Tcp.set_handler pcb (fun ev ->
      if ev = Tcp.Connected then Tcp.abort pcb);
  Engine.run ~until:(Time.of_seconds 2.0) w.engine;
  Alcotest.(check bool) "peer saw RST" true !server_reset;
  Alcotest.(check int) "a table empty" 0 (Tcp.connection_count w.tcp_a)

(* {2 Adversarial wire conditions (property tests)} *)

let adversarial_transfer ~mangle ~jitter ~duplicate ~total seed =
  let w = make_world () in
  let rng = Rng.create seed in
  w.mangle <- mangle rng;
  w.jitter <- jitter rng;
  w.duplicate <- duplicate rng;
  let received, _eof = sink_app w ~port:80 in
  let _pcb, sent, _, _ = source_app w ~port:80 ~total in
  Engine.run ~until:(Time.of_seconds 240.0) w.engine;
  (!sent, Buffer.contents received)

let qtest name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:8 ~name gen f)

let test_random_corruption =
  qtest "random bit flips never corrupt the stream"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let total = 120_000 in
      let mangle rng raw =
        (* Flip a bit in ~3% of segments. *)
        if Rng.int rng 100 < 3 then begin
          let pos = Rng.int rng (Bytes.length raw) in
          Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0x10))
        end
      in
      let sent, got =
        adversarial_transfer
          ~mangle
          ~jitter:(fun _ () -> 0)
          ~duplicate:(fun _ () -> false)
          ~total seed
      in
      (* Everything pushed arrives, intact, in order. *)
      sent = total && String.equal got (expected_stream total))

let test_random_reordering =
  qtest "random reordering never corrupts the stream"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let total = 120_000 in
      let jitter rng () = Rng.int rng (Time.of_micros 400.0) in
      let sent, got =
        adversarial_transfer
          ~mangle:(fun _ _ -> ())
          ~jitter
          ~duplicate:(fun _ () -> false)
          ~total seed
      in
      sent = total && String.equal got (expected_stream total))

let test_random_duplication =
  qtest "random duplication never corrupts the stream"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let total = 120_000 in
      let duplicate rng () = Rng.int rng 100 < 10 in
      let sent, got =
        adversarial_transfer
          ~mangle:(fun _ _ -> ())
          ~jitter:(fun _ () -> 0)
          ~duplicate
          ~total seed
      in
      sent = total && String.equal got (expected_stream total))

let test_combined_hostile_wire =
  qtest "corruption + loss + reordering + duplication together"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let total = 80_000 in
      let w = make_world () in
      let rng = Rng.create seed in
      let drop_rng = Rng.split rng in
      w.filter <-
        (fun ~from _ len -> from = `A && len > 0 && Rng.int drop_rng 100 < 2);
      w.mangle <-
        (fun raw ->
          if Rng.int rng 100 < 2 then begin
            let pos = Rng.int rng (Bytes.length raw) in
            Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0x01))
          end);
      w.jitter <- (fun () -> Rng.int rng (Time.of_micros 300.0));
      w.duplicate <- (fun () -> Rng.int rng 100 < 5);
      let received, _eof = sink_app w ~port:80 in
      let _pcb, sent, _, _ = source_app w ~port:80 ~total in
      Engine.run ~until:(Time.of_seconds 240.0) w.engine;
      !sent = total && String.equal (Buffer.contents received) (expected_stream total))

(* {2 Send windows}

   [Tcp.send] queues a window of the caller's buffer. Sending windows
   of one shared buffer must put the same bytes on the wire as sending
   a fresh copy of each window. *)

(* Stream [windows] of [buf] in order, resuming a partly accepted
   window on the next Writable event; returns what the peer received.
   The 4 KiB send buffer splits most windows across several events. *)
let window_transfer ~send buf windows =
  let w = make_world ~config_a:{ Tcp.default_config with Tcp.snd_buf = 4096 } () in
  let received, _eof = sink_app w ~port:80 in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  let pending = ref windows and closed = ref false in
  let rec pump () =
    match !pending with
    | [] -> if not !closed then (closed := true; Tcp.close pcb)
    | (off, len) :: rest ->
        let n = send pcb buf ~off ~len in
        if n = len then (pending := rest; pump ())
        else pending := (off + n, len - n) :: rest
  in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Connected || ev = Tcp.Writable then pump ());
  Engine.run ~until:(Time.of_seconds 30.0) w.engine;
  Buffer.contents received

let test_send_windows_match_copies =
  let size = 16384 in
  qtest "send windows deliver what sending copies delivers"
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_bound (size - 1)) (int_bound size)))
    (fun raw ->
      let buf = Bytes.init size (fun i -> Char.chr (((i * 13) + (i / 97)) land 0xff)) in
      let windows = List.map (fun (off, len) -> (off, min len (size - off))) raw in
      let expected =
        String.concat "" (List.map (fun (off, len) -> Bytes.sub_string buf off len) windows)
      in
      let copy pcb b ~off ~len = Tcp.send pcb (Bytes.sub b off len) ~off:0 ~len in
      String.equal (window_transfer ~send:Tcp.send buf windows) expected
      && String.equal (window_transfer ~send:copy buf windows) expected)

let test_simultaneous_close () =
  (* Both ends close at the same moment: FIN crosses FIN; both sides
     traverse CLOSING and reach CLOSED. *)
  let w = make_world () in
  let server_pcb = ref None in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb -> server_pcb := Some pcb);
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Engine.run ~until:(Time.of_seconds 0.5) w.engine;
  (match !server_pcb with
  | Some sp ->
      (* Close both before either FIN can arrive. *)
      Tcp.close pcb;
      Tcp.close sp
  | None -> Alcotest.fail "not accepted");
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  Alcotest.(check bool) "client closed" true (Tcp.state pcb = Tcp.Closed);
  (match !server_pcb with
  | Some sp -> Alcotest.(check bool) "server closed" true (Tcp.state sp = Tcp.Closed)
  | None -> ());
  Alcotest.(check int) "a table empty" 0 (Tcp.connection_count w.tcp_a);
  Alcotest.(check int) "b table empty" 0 (Tcp.connection_count w.tcp_b)

let test_half_close_data_after_fin () =
  (* A sends FIN; B keeps sending data afterwards; A receives it all. *)
  let w = make_world () in
  let b_pcb = ref None in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb -> b_pcb := Some pcb);
  let got = Buffer.create 64 in
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Tcp.set_handler pcb (fun ev ->
      match ev with
      | Tcp.Connected -> Tcp.close pcb (* immediate half-close *)
      | Tcp.Readable -> Buffer.add_bytes got (Tcp.recv pcb ~max:10_000)
      | _ -> ());
  Engine.run ~until:(Time.of_seconds 0.5) w.engine;
  (match !b_pcb with
  | Some sp ->
      Alcotest.(check bool) "server in CLOSE_WAIT" true (Tcp.state sp = Tcp.Close_wait);
      ignore (Tcp.send sp (Bytes.of_string "after-your-fin") ~off:0 ~len:14);
      Tcp.close sp
  | None -> Alcotest.fail "not accepted");
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  Alcotest.(check string) "data delivered after our FIN" "after-your-fin"
    (Buffer.contents got);
  Alcotest.(check bool) "fully closed" true (Tcp.state pcb = Tcp.Closed)

let test_time_wait_reaped_after_2msl () =
  (* Churn regression: TIME_WAIT must actually end after 2×MSL, or at
     tens of thousands of connections per second the connection table
     fills with corpses and the ephemeral range runs dry. *)
  let config = { Tcp.default_config with Tcp.msl = Time.of_seconds 0.05 } in
  let w = make_world ~config_a:config ~config_b:config () in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              ignore (Tcp.recv pcb ~max:64);
              if Tcp.recv_eof pcb then Tcp.close pcb
          | _ -> ()));
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Connected then Tcp.close pcb);
  (* Established and actively closed well within one MSL... *)
  Engine.run ~until:(Time.of_seconds 0.04) w.engine;
  Alcotest.(check bool) "active closer parks in TIME_WAIT" true
    (Tcp.state pcb = Tcp.Time_wait);
  Alcotest.(check int) "the corpse still occupies the table" 1
    (Tcp.connection_count w.tcp_a);
  (* The [port_in_use] probe — what Tcp_srv's port selector consults —
     must agree: the four-tuple is taken while the corpse sits there. *)
  let _, local_port = Tcp.local_addr pcb in
  let tuple_in_use () =
    Tcp.port_in_use w.tcp_a ~local_ip:ip_a ~port:local_port ~remote_ip:ip_b
      ~remote_port:80
  in
  Alcotest.(check bool) "port_in_use sees the TIME_WAIT tuple" true
    (tuple_in_use ());
  (* ...and reaped once 2×MSL has passed. *)
  Engine.run ~until:(Time.of_seconds 0.25) w.engine;
  Alcotest.(check bool) "reaped after 2 MSL" true (Tcp.state pcb = Tcp.Closed);
  Alcotest.(check int) "client table empty again" 0
    (Tcp.connection_count w.tcp_a);
  Alcotest.(check bool) "port_in_use agrees the tuple is free again" false
    (tuple_in_use ())

let test_ephemeral_port_reuse_at_churn_rates () =
  (* More connects than the whole 16384-port ephemeral range: every
     four-tuple is reused at least once. Only works because TIME_WAIT
     corpses are reaped on time — were they not, [Tcp.connect] would
     run out of ports partway through ("Tcp: out of ephemeral ports"). *)
  let config = { Tcp.default_config with Tcp.msl = Time.of_micros 500.0 } in
  let w = make_world ~latency_us:5.0 ~config_a:config ~config_b:config () in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              ignore (Tcp.recv pcb ~max:64);
              if Tcp.recv_eof pcb then Tcp.close pcb
          | _ -> ()));
  let n = 17_000 in
  let completed = ref 0 in
  let rec spawn i =
    if i < n then begin
      let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
      Tcp.set_handler pcb (fun ev ->
          if ev = Tcp.Connected then begin
            incr completed;
            Tcp.close pcb
          end);
      ignore
        (Engine.schedule w.engine (Time.of_micros 30.0) (fun () ->
             spawn (i + 1)))
    end
  in
  spawn 0;
  Engine.run ~until:(Time.of_seconds 1.0) w.engine;
  Alcotest.(check int) "every connect found a recycled port" n !completed;
  Alcotest.(check bool) "client table stays bounded" true
    (Tcp.connection_count w.tcp_a < 200)

(* {2 The conformance checker riding the rare close paths}

   [Newt_verify.Tcpfsm] judges every hook event these worlds emit. The
   rare paths — simultaneous close, a lost final ACK, a RST landing in
   TIME_WAIT — are exactly where a hand-maintained rule table drifts
   from the engine, so each must come out clean; the sabotage modes
   must each come out dirty with the right check name. *)

module Tcpfsm = Newt_verify.Tcpfsm
module Report = Newt_verify.Report

let with_fsm f =
  Tcpfsm.install ();
  Tcpfsm.reset ();
  Fun.protect ~finally:Tcpfsm.uninstall f

let fsm_clean label =
  Alcotest.(check (list string))
    label []
    (List.map (fun v -> v.Report.detail) (Tcpfsm.violations ()));
  Alcotest.(check bool) (label ^ ": segments judged") true (Tcpfsm.segment_count () > 0);
  Alcotest.(check bool) (label ^ ": transitions judged") true
    (Tcpfsm.transition_count () > 0)

let fsm_checks () = List.map (fun v -> v.Report.check) (Tcpfsm.violations ())

let test_fsm_simultaneous_close () =
  with_fsm @@ fun () ->
  let w = make_world () in
  let server_pcb = ref None in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb -> server_pcb := Some pcb);
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Engine.run ~until:(Time.of_seconds 0.5) w.engine;
  let sp =
    match !server_pcb with Some sp -> sp | None -> Alcotest.fail "not accepted"
  in
  Tcp.close pcb;
  Tcp.close sp;
  (* Both FINs are in flight and neither acknowledges the other's:
     each side must pass through CLOSING on its way out. *)
  Engine.run ~until:(Time.of_seconds 0.5 + Time.of_micros 80.0) w.engine;
  Alcotest.(check bool) "client traverses CLOSING" true
    (Tcp.state pcb = Tcp.Closing);
  Alcotest.(check bool) "server traverses CLOSING" true
    (Tcp.state sp = Tcp.Closing);
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  Alcotest.(check bool) "both closed" true
    (Tcp.state pcb = Tcp.Closed && Tcp.state sp = Tcp.Closed);
  fsm_clean "simultaneous close is conformant"

let test_fsm_last_ack_retransmission () =
  with_fsm @@ fun () ->
  let w = make_world () in
  let server_pcb = ref None in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      server_pcb := Some pcb;
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              ignore (Tcp.recv pcb ~max:64);
              if Tcp.recv_eof pcb then Tcp.close pcb
          | _ -> ()));
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Connected then Tcp.close pcb);
  (* Swallow the client's final ACK while the server sits in LAST_ACK:
     the server must retransmit its FIN from LAST_ACK — a legal tx
     under the table — and still reach CLOSED on the re-ACK. *)
  let dropped = ref false in
  w.filter <-
    (fun ~from hdr len ->
      match !server_pcb with
      | Some sp
        when from = `A
             && (not !dropped)
             && Tcp.state sp = Tcp.Last_ack
             && len = 0
             && not hdr.Tcp_wire.flags.Tcp_wire.fin
             && not hdr.Tcp_wire.flags.Tcp_wire.syn
             && not hdr.Tcp_wire.flags.Tcp_wire.rst ->
          dropped := true;
          true
      | _ -> false);
  Engine.run ~until:(Time.of_seconds 10.0) w.engine;
  Alcotest.(check bool) "the final ACK was dropped once" true !dropped;
  let sp = Option.get !server_pcb in
  Alcotest.(check bool) "server reached CLOSED anyway" true
    (Tcp.state sp = Tcp.Closed);
  Alcotest.(check bool) "server retransmitted from LAST_ACK" true
    ((Tcp.stats w.tcp_b).Tcp.retransmits >= 1);
  Alcotest.(check bool) "client reached CLOSED" true (Tcp.state pcb = Tcp.Closed);
  fsm_clean "LAST_ACK retransmission is conformant"

let test_fsm_rst_in_time_wait () =
  with_fsm @@ fun () ->
  let w = make_world () in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          match ev with
          | Tcp.Readable ->
              ignore (Tcp.recv pcb ~max:64);
              if Tcp.recv_eof pcb then Tcp.close pcb
          | _ -> ()));
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Tcp.set_handler pcb (fun ev -> if ev = Tcp.Connected then Tcp.close pcb);
  Engine.run ~until:(Time.of_seconds 0.5) w.engine;
  Alcotest.(check bool) "active closer parks in TIME_WAIT" true
    (Tcp.state pcb = Tcp.Time_wait);
  (* An in-window RST assassinates the TIME_WAIT corpse on the spot —
     no 2-MSL wait — and the table must agree it is a legal exit. *)
  let _, local_port = Tcp.local_addr pcb in
  let rst =
    {
      Tcp_wire.src_port = 80;
      dst_port = local_port;
      seq = Tcp.rcv_next pcb;
      ack = 0;
      flags = Tcp_wire.flag_rst;
      window = 0;
      mss = None;
      wscale = None;
    }
  in
  Tcp.input w.tcp_a ~src:ip_b ~dst:ip_a rst ~payload:Bytes.empty ~off:0 ~len:0;
  Alcotest.(check bool) "TIME_WAIT assassinated immediately" true
    (Tcp.state pcb = Tcp.Closed);
  Alcotest.(check int) "corpse gone from the table" 0
    (Tcp.connection_count w.tcp_a);
  fsm_clean "RST in TIME_WAIT is conformant"

let test_fsm_flags_ack_from_closed_sabotage () =
  with_fsm @@ fun () ->
  let w = make_world () in
  Tcp.set_sabotage w.tcp_b (Some Tcp.Ack_from_closed);
  (* Nothing listens on 81: the engine must RST; the sabotage ACKs
     instead, which the checker pins as ack-from-wrong-state. *)
  let _pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:81 () in
  Engine.run ~until:(Time.of_seconds 0.2) w.engine;
  Alcotest.(check bool) "checker flags the bare ACK from CLOSED" true
    (List.mem "ack-from-wrong-state" (fsm_checks ()))

let test_fsm_flags_resurrected_pcb () =
  with_fsm @@ fun () ->
  let w = make_world () in
  (* A PCB materializing in ESTABLISHED with no handshake — the
     stale-connection crash bug of Table I, in miniature. *)
  Tcp.resurrect w.tcp_b [ (ip_b, 80, ip_a, 40_000) ];
  Alcotest.(check bool) "checker flags CLOSED -> ESTABLISHED" true
    (List.mem "illegal-transition" (fsm_checks ()));
  Alcotest.(check bool) "a counterexample trace is attached" true
    (Tcpfsm.trace () <> [])

(* [Tcp.input]'s payload is a window the caller still owns: an
   out-of-order segment must be stashed as a copy, so overwriting the
   caller's buffer before the hole fills cannot change the bytes
   delivered. *)
let test_input_window_ownership () =
  let w = make_world () in
  let server = ref None in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb -> server := Some pcb);
  let client = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Engine.run ~until:(Time.of_seconds 1.0) w.engine;
  let pcb = Option.get !server in
  let _, client_port = Tcp.local_addr client in
  let seg ~seq =
    {
      Tcp_wire.src_port = client_port;
      dst_port = 80;
      seq;
      ack = Tcp.snd_next pcb;
      flags = Tcp_wire.flag_ack;
      window = 65535;
      mss = None;
      wscale = None;
    }
  in
  let base = Tcp.rcv_next pcb in
  let frame = Bytes.of_string "world" in
  Tcp.input w.tcp_b ~src:ip_a ~dst:ip_b (seg ~seq:(Newt_net.Seq32.add base 5)) ~payload:frame ~off:0 ~len:5;
  Alcotest.(check int) "stashed out of order" 1 (Tcp.ooo_count pcb);
  Bytes.fill frame 0 (Bytes.length frame) 'Z';
  let frame = Bytes.of_string "..hello.." in
  Tcp.input w.tcp_b ~src:ip_a ~dst:ip_b (seg ~seq:base) ~payload:frame ~off:2 ~len:5;
  Bytes.fill frame 0 (Bytes.length frame) 'Z';
  Alcotest.(check string) "the original bytes, in order" "helloworld"
    (Bytes.to_string (Tcp.recv pcb ~max:100))

(* {2 Nagle (RFC 896)} *)

(* A connected pair: A's pcb once established, B draining everything
   into [received]. *)
let connected_pair () =
  let w = make_world () in
  let received = Buffer.create 4096 in
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      Tcp.set_handler pcb (fun ev ->
          if ev = Tcp.Readable then Buffer.add_bytes received (Tcp.recv pcb ~max:1_000_000)));
  let pcb = Tcp.connect w.tcp_a ~src:ip_a ~dst:ip_b ~dst_port:80 () in
  Engine.run ~until:(Time.of_seconds 0.1) w.engine;
  Alcotest.(check bool) "established" true (Tcp.state pcb = Tcp.Established);
  w.segs_seen <- [];
  (w, pcb, received)

(* Payload lengths of A's data segments, oldest first. *)
let data_lens_from_a w pcb =
  let port = snd (Tcp.local_addr pcb) in
  List.rev w.segs_seen
  |> List.filter_map (fun ((h : Tcp_wire.header), len) ->
         if h.Tcp_wire.src_port = port && len > 0 then Some len else None)

let write pcb n = Tcp.send pcb (Bytes.make n 'x') ~off:0 ~len:n

let test_nagle_holds_tail_until_flight_empties () =
  let w, pcb, received = connected_pair () in
  Alcotest.(check int) "whole write queued" 1960 (write pcb 1960);
  Alcotest.(check (list int)) "tail held behind the full segment" [ 1460 ]
    (data_lens_from_a w pcb);
  (* The receiver delays its ACK of one segment for 40 ms; until it
     arrives, the tail stays put. *)
  Engine.run ~until:(Engine.now w.engine + Time.of_seconds 0.02) w.engine;
  Alcotest.(check (list int)) "still held while 1460 B are in flight" [ 1460 ]
    (data_lens_from_a w pcb);
  Alcotest.(check int) "flight" 1460 (Tcp.flight_size pcb);
  (* The ACK that empties the flight releases the tail: the only ACK B
     sends before it acknowledges exactly the full segment. *)
  Engine.run ~until:(Engine.now w.engine + Time.of_seconds 1.0) w.engine;
  Alcotest.(check (list int)) "both segments sent" [ 1460; 500 ] (data_lens_from_a w pcb);
  Alcotest.(check int) "all delivered" 1960 (Buffer.length received);
  Alcotest.(check int) "nothing in flight" 0 (Tcp.flight_size pcb)

let test_nagle_small_write_on_idle_connection () =
  let w, pcb, _ = connected_pair () in
  ignore (write pcb 256);
  Alcotest.(check (list int)) "a 256 B request goes at once" [ 256 ] (data_lens_from_a w pcb)

let test_nagle_flushes_tail_with_fin () =
  let w, pcb, received = connected_pair () in
  ignore (write pcb 1960);
  Alcotest.(check (list int)) "tail held" [ 1460 ] (data_lens_from_a w pcb);
  Tcp.close pcb;
  Alcotest.(check (list int)) "close sends the tail at once" [ 1460; 500 ]
    (data_lens_from_a w pcb);
  let port = snd (Tcp.local_addr pcb) in
  (match w.segs_seen with
  | (h, 0) :: _ when h.Tcp_wire.src_port = port ->
      Alcotest.(check bool) "and the FIN right behind it" true h.Tcp_wire.flags.Tcp_wire.fin
  | _ -> Alcotest.fail "no FIN after the tail");
  Engine.run ~until:(Engine.now w.engine + Time.of_seconds 1.0) w.engine;
  Alcotest.(check int) "all delivered" 1960 (Buffer.length received)

(* Silly-window avoidance: a slow reader behind an 8 KiB window opens
   it a little at a time, and the sender must not answer each small
   opening with a small segment. A short segment goes out only with
   nothing in flight or as the stream's last (PSH). *)
let test_silly_window_avoidance () =
  let config_b = { Tcp.default_config with Tcp.rcv_buf = 8 * 1024; use_wscale = false } in
  let w = make_world ~config_b () in
  let received = Buffer.create 4096 in
  (* The reader takes 700 B every millisecond, whatever arrives. *)
  Tcp.listen w.tcp_b ~port:80 ~on_accept:(fun pcb ->
      let rec read () =
        Buffer.add_bytes received (Tcp.recv pcb ~max:700);
        ignore (Engine.schedule w.engine (Time.of_micros 1000.0) read)
      in
      read ());
  let total = 100_000 in
  let pcb, _, _, _ = source_app w ~port:80 ~total in
  let violations = ref 0 and short = ref 0 in
  let first_seq = ref None in
  w.filter <-
    (fun ~from hdr len ->
      if from = `A && len > 0 && !first_seq = None then first_seq := Some hdr.Tcp_wire.seq;
      if from = `A && len > 0 && len < 1460 then begin
        incr short;
        let last =
          Newt_net.Seq32.add hdr.Tcp_wire.seq len
          = Newt_net.Seq32.add (Option.get !first_seq) total
        in
        let flushes = hdr.Tcp_wire.flags.Tcp_wire.psh && last in
        if Tcp.flight_size pcb > 0 && not flushes then incr violations
      end;
      false);
  Engine.run ~until:(Time.of_seconds 60.0) w.engine;
  Alcotest.(check int) "all delivered" total (Buffer.length received);
  Alcotest.(check bool) "the window did open in small steps" true (!short > 0);
  Alcotest.(check int) "no silly segment with data in flight" 0 !violations

let suite =
  [
    ("three-way handshake", `Quick, test_handshake);
    ("bulk transfer 1MB lossless", `Quick, test_bulk_transfer);
    ("orderly close reaches CLOSED both sides", `Quick, test_connection_close_states);
    ("RST on connection to closed port", `Quick, test_rst_on_refused_port);
    ("recovery from 2% segment loss", `Quick, test_loss_recovery);
    ("fast retransmit on a single loss", `Quick, test_fast_retransmit_on_single_loss);
    ("segments respect the MSS", `Quick, test_segments_respect_mss);
    ("TSO emits oversized segments", `Quick, test_tso_emits_oversized_segments);
    ("receiver window bounds flight", `Quick, test_receiver_window_bounds_flight);
    ("bidirectional transfer", `Quick, test_bidirectional_transfer);
    ("srtt estimation tracks link latency", `Quick, test_srtt_estimation);
    ("tcp server crash resets connections", `Quick, test_shutdown_all_kills_connections);
    ("listening sockets serialize and restore", `Quick, test_listening_state_is_serializable);
    ("established tuples exported for conntrack", `Quick, test_established_tuples_for_conntrack);
    ("duplicate listen rejected", `Quick, test_duplicate_listen_rejected);
    ( "zero-window probe recovers a lost update",
      `Quick,
      test_zero_window_probe_recovers_lost_update );
    ("abort sends RST", `Quick, test_abort_sends_rst);
    ("simultaneous close", `Quick, test_simultaneous_close);
    ("data flows after a half-close", `Quick, test_half_close_data_after_fin);
    ("TIME_WAIT reaped after 2 MSL", `Quick, test_time_wait_reaped_after_2msl);
    ( "ephemeral ports recycle at churn rates",
      `Quick,
      test_ephemeral_port_reuse_at_churn_rates );
    ("fsm checker: simultaneous close", `Quick, test_fsm_simultaneous_close);
    ( "fsm checker: LAST_ACK retransmission",
      `Quick,
      test_fsm_last_ack_retransmission );
    ("fsm checker: RST in TIME_WAIT", `Quick, test_fsm_rst_in_time_wait);
    ( "fsm checker flags ACK from CLOSED",
      `Quick,
      test_fsm_flags_ack_from_closed_sabotage );
    ( "fsm checker flags a resurrected PCB",
      `Quick,
      test_fsm_flags_resurrected_pcb );
    test_random_corruption;
    test_random_reordering;
    test_random_duplication;
    test_combined_hostile_wire;
    test_send_windows_match_copies;
    ("input window: the stash owns its copy", `Quick, test_input_window_ownership);
    ( "nagle: tail held until the flight empties",
      `Quick,
      test_nagle_holds_tail_until_flight_empties );
    ( "nagle: a small write on an idle connection goes at once",
      `Quick,
      test_nagle_small_write_on_idle_connection );
    ("nagle: the tail flushes with the FIN", `Quick, test_nagle_flushes_tail_with_fin);
    ("silly-window avoidance", `Quick, test_silly_window_avoidance);
    test_connection_table_order;
  ]
