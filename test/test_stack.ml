(* Tests for the stack substrate: the event-driven server runtime
   (Proc) and the Table II capacity model. *)

module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Machine = Newt_hw.Machine
module Sim_chan = Newt_channels.Sim_chan
module Proc = Newt_stack.Proc
module Msg = Newt_stack.Msg
module Capacity = Newt_stack.Capacity
module Costs = Newt_hw.Costs

let make_world () =
  let e = Engine.create () in
  let m = Machine.create e in
  (e, m)

let dummy_msg = Msg.Sock_event { sock = 0; event = `Readable }

let test_proc_drains_messages () =
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let chan = Sim_chan.create ~id:1 () in
  let got = ref 0 in
  Proc.add_rx p chan (fun _ -> (100, fun () -> incr got));
  for _ = 1 to 5 do
    ignore (Sim_chan.send chan dummy_msg)
  done;
  Engine.run e;
  Alcotest.(check int) "all messages processed" 5 !got

let test_proc_round_robin_fairness () =
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let a = Sim_chan.create ~id:1 () and b = Sim_chan.create ~id:2 () in
  let order = ref [] in
  Proc.add_rx p a (fun _ -> (10, fun () -> order := "a" :: !order));
  Proc.add_rx p b (fun _ -> (10, fun () -> order := "b" :: !order));
  (* Load both channels before the engine runs anything. *)
  for _ = 1 to 3 do
    ignore (Sim_chan.send a dummy_msg);
    ignore (Sim_chan.send b dummy_msg)
  done;
  Engine.run e;
  let s = String.concat "" (List.rev !order) in
  let alternates =
    String.length s = 6
    &&
    let ok = ref true in
    for i = 0 to String.length s - 2 do
      if s.[i] = s.[i + 1] then ok := false
    done;
    !ok
  in
  Alcotest.(check bool)
    (Printf.sprintf "alternates rather than starving (%s)" s)
    true alternates

let test_proc_service_order_three_channels () =
  (* The served channel moves to the back; the channels before it keep
     their places ahead of those after it. [a] starts empty and gets a
     message from [b]'s first handler, so after serving [b] the order is
     a, c, b (a rotation would give c, a, b and serve c next). *)
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let a = Sim_chan.create ~id:1 ()
  and b = Sim_chan.create ~id:2 ()
  and c = Sim_chan.create ~id:3 () in
  let order = ref [] in
  let served name effect _ =
    (10, fun () -> order := name :: !order; effect ())
  in
  let b_first = ref true in
  Proc.add_rx p a (served "a" ignore);
  Proc.add_rx p b
    (served "b" (fun () ->
         if !b_first then begin
           b_first := false;
           ignore (Sim_chan.send a dummy_msg : bool)
         end));
  Proc.add_rx p c (served "c" ignore);
  for _ = 1 to 2 do
    ignore (Sim_chan.send b dummy_msg : bool);
    ignore (Sim_chan.send c dummy_msg : bool)
  done;
  Engine.run e;
  Alcotest.(check (list string)) "service sequence" [ "b"; "a"; "c"; "b"; "c" ]
    (List.rev !order)

let test_proc_crash_drops_work () =
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let chan = Sim_chan.create ~id:1 () in
  let got = ref 0 in
  Proc.add_rx p chan (fun _ -> (1000, fun () -> incr got));
  ignore (Sim_chan.send chan dummy_msg);
  (* Crash before the work completes. *)
  ignore (Engine.schedule e 10 (fun () -> Proc.crash p));
  Engine.run e;
  Alcotest.(check int) "in-flight work died with the incarnation" 0 !got;
  Alcotest.(check bool) "not alive" false (Proc.alive p)

let test_proc_restart_bumps_incarnation () =
  let _, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let restarted_fresh = ref None in
  Proc.set_on_restart p (fun ~fresh -> restarted_fresh := Some fresh);
  let inc0 = Proc.incarnation p in
  Proc.crash p;
  Proc.restart p;
  Alcotest.(check int) "incarnation bumped" (inc0 + 1) (Proc.incarnation p);
  Alcotest.(check (option bool)) "restart hook ran with fresh=false" (Some false)
    !restarted_fresh;
  Alcotest.(check bool) "alive again" true (Proc.alive p)

let test_proc_hang_stops_progress () =
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let chan = Sim_chan.create ~id:1 () in
  let got = ref 0 in
  Proc.add_rx p chan (fun _ -> (10, fun () -> incr got));
  Proc.hang p;
  ignore (Sim_chan.send chan dummy_msg);
  Engine.run e;
  Alcotest.(check int) "hung server processes nothing" 0 !got;
  Alcotest.(check bool) "alive but unresponsive" true
    (Proc.alive p && not (Proc.responsive p))

let test_proc_timer_dies_with_incarnation () =
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let fired = ref false in
  ignore (Proc.after p 1000 ~cost:10 (fun () -> fired := true) : unit -> unit);
  Proc.crash p;
  Proc.restart p;
  Engine.run e;
  Alcotest.(check bool) "old incarnation's timer suppressed" false !fired

let test_proc_work_serializes_on_core () =
  let e, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let p = Proc.create m ~name:"srv" ~core () in
  let finish_times = ref [] in
  Proc.exec p ~cost:100 (fun () -> finish_times := Engine.now e :: !finish_times);
  Proc.exec p ~cost:100 (fun () -> finish_times := Engine.now e :: !finish_times);
  Engine.run e;
  Alcotest.(check (list int)) "sequential on one core" [ 100; 200 ]
    (List.rev !finish_times)

(* {2 Capacity model: the shape of Table II} *)

let gbps config = (Capacity.evaluate config).Capacity.goodput_gbps

let test_table2_ordering () =
  (* The orderings the paper's Table II establishes. *)
  Alcotest.(check bool) "minix << any NewtOS config" true
    (gbps Capacity.Minix_sync *. 10.0 < gbps Capacity.Split_dedicated);
  Alcotest.(check bool) "SYSCALL server helps (line 2 < 3)" true
    (gbps Capacity.Split_dedicated < gbps Capacity.Split_dedicated_sc);
  Alcotest.(check bool) "single server beats split (line 3 < 4)" true
    (gbps Capacity.Split_dedicated_sc < gbps Capacity.Single_server_sc);
  Alcotest.(check bool) "TSO saturates the wire (line 4 < 5)" true
    (gbps Capacity.Single_server_sc < gbps Capacity.Single_server_sc_tso);
  Alcotest.(check bool) "both TSO configs wire-limited" true
    (abs_float (gbps Capacity.Single_server_sc_tso -. gbps Capacity.Split_dedicated_sc_tso)
    < 0.01);
  Alcotest.(check bool) "Linux 10GbE fastest" true
    (gbps Capacity.Linux_10gbe > gbps Capacity.Split_dedicated_sc_tso)

let test_table2_magnitudes () =
  (* Within a reasonable band of the paper's numbers. *)
  let close ?(tol = 0.35) paper ours =
    abs_float (ours -. paper) /. paper < tol
  in
  Alcotest.(check bool) "minix ~0.12 Gbps" true (close 0.12 (gbps Capacity.Minix_sync));
  Alcotest.(check bool) "split ~3.2" true (close 3.2 (gbps Capacity.Split_dedicated));
  Alcotest.(check bool) "split+sc ~3.6" true (close 3.6 (gbps Capacity.Split_dedicated_sc));
  Alcotest.(check bool) "single ~3.9" true (close 3.9 (gbps Capacity.Single_server_sc));
  Alcotest.(check bool) "tso ~5" true (close 5.0 (gbps Capacity.Split_dedicated_sc_tso));
  Alcotest.(check bool) "linux ~8.4" true (close 8.4 (gbps Capacity.Linux_10gbe))

let test_table2_tso_wire_limited () =
  let r = Capacity.evaluate Capacity.Split_dedicated_sc_tso in
  Alcotest.(check string) "bottleneck is the wire" "wire" r.Capacity.bottleneck

let test_table2_split_bottleneck_is_tcp () =
  let r = Capacity.evaluate Capacity.Split_dedicated_sc in
  Alcotest.(check string) "tcp server saturates first" "tcp server" r.Capacity.bottleneck;
  (* And the paper's claim that IP is NOT the bottleneck even with its
     triple handling. *)
  let ip_stage =
    List.find (fun s -> s.Capacity.label = "ip server") r.Capacity.stages
  in
  let tcp_stage =
    List.find (fun s -> s.Capacity.label = "tcp server") r.Capacity.stages
  in
  Alcotest.(check bool) "ip has headroom over tcp" true
    (ip_stage.Capacity.capacity_gbps > tcp_stage.Capacity.capacity_gbps *. 1.2)

let test_wire_goodput () =
  let g = Capacity.wire_goodput_gbps ~nics:1 ~gbps_per_nic:1.0 ~mss:1460 in
  Alcotest.(check bool) "1 Gbps carries ~0.95 Gbps of TCP payload" true
    (g > 0.92 && g < 0.97)

let test_capacity_cost_sensitivity () =
  (* Raising the per-message channel cost must hurt the split stack. *)
  let base = Costs.default in
  let expensive = { base with Costs.channel_marshal = 3000; channel_demux = 3000 } in
  let fast = (Capacity.evaluate ~costs:base Capacity.Split_dedicated_sc).Capacity.goodput_gbps in
  let slow =
    (Capacity.evaluate ~costs:expensive Capacity.Split_dedicated_sc).Capacity.goodput_gbps
  in
  Alcotest.(check bool) "expensive IPC slows the split stack" true (slow < fast *. 0.7)


(* {2 IP server: receive frames lent to transport shards}

   The test is IP's driver and both transport shards. [inject ~sport]
   DMA-writes a TCP frame into a fresh receive-pool slot and hands it
   to IP; IP lends it to shard [sport mod 2] as a sub-pointer to the
   TCP segment, which [lent] collects. A transport returns a frame
   with [Rx_done] on its own channel. *)

module Ip_srv = Newt_stack.Ip_srv
module Component = Newt_stack.Component
module Registry = Newt_channels.Registry
module Rich_ptr = Newt_channels.Rich_ptr
module Pool = Newt_channels.Pool
module Addr = Newt_net.Addr

type ip_rig = {
  ip : Ip_srv.t;
  registry : Registry.t;
  inject : sport:int -> Rich_ptr.t;  (* the frame's whole-slot pointer *)
  lent : shard:int -> Rich_ptr.t list;  (* newest first *)
  rx_done : shard:int -> Rich_ptr.t -> unit;
}

let make_ip_rig () =
  let engine, m = make_world () in
  let comp = Component.create m ~name:"ip" ~core:(Machine.add_dedicated_core m) () in
  let registry = Registry.create () in
  let store = Hashtbl.create 4 in
  let ip =
    Ip_srv.create comp ~registry ~save:(Hashtbl.replace store) ~load:(Hashtbl.find_opt store) ()
  in
  let next_id = ref 9000 in
  let chan () =
    incr next_id;
    Sim_chan.create ~capacity:64 ~id:!next_id ()
  in
  let dma = ref None in
  let hooks =
    {
      Ip_srv.drv_connect = (fun ~rx_from_ip:_ ~tx_to_ip:_ -> ());
      drv_grant_rx_pool = (fun ~alloc ~write -> dma := Some (alloc, write));
      drv_on_ip_crash = ignore;
      drv_on_ip_restart = ignore;
    }
  in
  let local = Addr.Ipv4.v 10 0 0 1 and peer = Addr.Ipv4.v 10 0 0 2 in
  let rx_chan = chan () in
  ignore
    (Ip_srv.add_iface ip
       { Ip_srv.addr = local; netmask_bits = 24; mac = Addr.Mac.of_index 1 }
       ~hooks ~tx_chan:(chan ()) ~rx_chan);
  let pairs = Array.init 2 (fun _ -> (chan (), chan ())) in
  Ip_srv.connect_transport_sharded ip ~proto:`Tcp
    ~steer:(fun ~src:_ ~sport ~dst:_ ~dport:_ -> sport mod 2)
    ~pairs;
  let lent = Array.make 2 [] in
  let settle () =
    Engine.run engine;
    Array.iteri
      (fun i (_, to_transport) ->
        let rec drain () =
          match Sim_chan.recv to_transport with
          | Some (Msg.Rx_deliver { buf; _ }) ->
              lent.(i) <- buf :: lent.(i);
              drain ()
          | Some _ -> drain ()
          | None -> ()
        in
        drain ())
      pairs
  in
  let inject ~sport =
    let alloc, write = Option.get !dma in
    let seg =
      Newt_net.Tcp_wire.encode ~src:peer ~dst:local
        {
          Newt_net.Tcp_wire.src_port = sport;
          dst_port = 80;
          seq = 1;
          ack = 1;
          flags = Newt_net.Tcp_wire.flag_ack;
          window = 1000;
          mss = None;
          wscale = None;
        }
        ~payload:(Bytes.make 100 'x')
    in
    let pkt =
      Newt_net.Ipv4.packet
        {
          Newt_net.Ipv4.src = peer;
          dst = local;
          protocol = Newt_net.Ipv4.Tcp;
          ttl = 64;
          ident = 0;
          total_len = 0;
        }
        ~payload:seg
    in
    let frame =
      Newt_net.Ethernet.frame
        {
          Newt_net.Ethernet.dst = Addr.Mac.of_index 1;
          src = Addr.Mac.of_index 2;
          ethertype = Newt_net.Ethernet.Ipv4;
        }
        ~payload:pkt
    in
    let buf = Option.get (alloc ()) in
    write buf frame;
    assert (Sim_chan.send rx_chan (Msg.Rx_frame { buf; len = Bytes.length frame }));
    settle ();
    buf
  in
  let rx_done ~shard buf =
    assert (Sim_chan.send (fst pairs.(shard)) (Msg.Rx_done { buf }));
    settle ()
  in
  { ip; registry; inject; lent = (fun ~shard -> lent.(shard)); rx_done }

let live rig ptr =
  match Registry.read rig.registry ptr with
  | _ -> true
  | exception (Pool.Stale_pointer _ | Registry.Unknown_pool _) -> false

let test_ip_rx_done_frees_exactly_its_frame () =
  let rig = make_ip_rig () in
  let frame_a = rig.inject ~sport:1000 and frame_b = rig.inject ~sport:1002 in
  let sub_b, sub_a =
    match rig.lent ~shard:0 with
    | [ b; a ] -> (b, a)
    | _ -> Alcotest.fail "two frames lent to shard 0"
  in
  Alcotest.(check bool) "a sub-pointer, not the whole frame" true (sub_a.Rich_ptr.off > 0);
  Alcotest.(check int) "both frames held" 2 (Ip_srv.rx_pool_in_use rig.ip);
  rig.rx_done ~shard:0 sub_a;
  Alcotest.(check int) "one frame freed" 1 (Ip_srv.rx_pool_in_use rig.ip);
  Alcotest.(check bool) "its frame is gone" false (live rig frame_a);
  Alcotest.(check bool) "the other frame is untouched" true (live rig sub_b && live rig frame_b)

let test_ip_stale_rx_done_ignored () =
  (* A slot freed and reallocated to a new frame: an Rx_done carrying
     the old generation must not free the new owner's frame. *)
  let rig = make_ip_rig () in
  let old_frame = rig.inject ~sport:1000 in
  let old_sub = List.hd (rig.lent ~shard:0) in
  rig.rx_done ~shard:0 old_sub;
  let new_frame = rig.inject ~sport:1000 in
  let new_sub = List.hd (rig.lent ~shard:0) in
  Alcotest.(check int) "the slot was reused" old_frame.Rich_ptr.slot new_frame.Rich_ptr.slot;
  Alcotest.(check bool) "under a new generation" true
    (new_frame.Rich_ptr.gen <> old_frame.Rich_ptr.gen);
  rig.rx_done ~shard:0 old_sub;
  Alcotest.(check int) "the new frame is still held" 1 (Ip_srv.rx_pool_in_use rig.ip);
  Alcotest.(check bool) "and still readable" true (live rig new_sub);
  rig.rx_done ~shard:0 new_sub;
  Alcotest.(check int) "the current generation frees it" 0 (Ip_srv.rx_pool_in_use rig.ip)

let test_ip_shard_crash_frees_only_its_frames () =
  let rig = make_ip_rig () in
  List.iter (fun sport -> ignore (rig.inject ~sport)) [ 1000; 1001; 1002; 1003; 1005 ];
  Alcotest.(check (pair int int)) "frames split across the shards" (2, 3)
    (List.length (rig.lent ~shard:0), List.length (rig.lent ~shard:1));
  Ip_srv.on_transport_shard_crash rig.ip ~proto:`Tcp ~shard:1;
  Alcotest.(check int) "shard 1's frames freed" 2 (Ip_srv.rx_pool_in_use rig.ip);
  Alcotest.(check bool) "shard 0's frames live" true (List.for_all (live rig) (rig.lent ~shard:0));
  Alcotest.(check bool) "shard 1's frames dead" false (List.exists (live rig) (rig.lent ~shard:1))

(* {2 Metering pool operations}

   The runtime meters each handler body, effect and continuation with
   an open/close counter. The oracle is the closure-based rule of
   [Pool.metered], run over a shadow counter that every pool operation
   of the script also bumps: a meter counts the operations made while
   it is the innermost one, a nested meter's operations count only
   there, and a meter left by an exception gives its enclosing meter
   its count back. Random scripts on three servers nest serves inside
   effects (a send wakes the receiver at once), crash and restart
   servers from effects (their notifications make pool operations that
   are never charged, and a restart drains synchronously), and raise
   from handlers (a server whose handler raised stays stuck until a
   restart, as it does in the stack); each server's [Proc.pool_ops] must equal the
   oracle's sum over its bodies and effects. *)

exception Boom

type job = {
  body : int;  (* alloc/free pairs in the handler's body *)
  effect : int;  (* and in its effect *)
  raises : bool;  (* the body raises after its operations *)
  restart : int option;  (* the effect crashes and restarts this server *)
  sends : (int * job) list;  (* the effect sends these, in order *)
}

let gen_job =
  let open QCheck2.Gen in
  fix
    (fun self depth ->
      let* body = int_bound 3 in
      let* effect = int_bound 3 in
      let* raises = frequency [ (1, pure true); (7, pure false) ] in
      let* restart = frequency [ (1, map Option.some (int_bound 2)); (6, pure None) ] in
      let* sends =
        if depth = 0 then pure []
        else list_size (int_bound 2) (pair (int_bound 2) (self (depth - 1)))
      in
      return { body; effect; raises; restart; sends })
    3

let metering_matches_the_closure_oracle top =
  let e, m = make_world () in
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:16 ~slot_size:64 in
  let shadow = ref 0 in
  let ops n =
    for _ = 1 to n do
      Pool.free pool (Pool.alloc pool ~len:8);
      shadow := !shadow + 2
    done
  in
  let oracle f =
    let outer = !shadow in
    shadow := 0;
    match f () with
    | v ->
        let n = !shadow in
        shadow := outer;
        (n, v)
    | exception ex ->
        shadow := outer;
        raise ex
  in
  let procs =
    Array.init 3 (fun i ->
        Proc.create m ~name:(Printf.sprintf "p%d" i) ~core:(Machine.add_dedicated_core m) ())
  in
  let chans = Array.init 3 (fun i -> Sim_chan.create ~id:(i + 1) ()) in
  let jobs = Array.init 3 (fun _ -> Queue.create ()) in
  let expected = Array.make 3 0 in
  let rec send (q, job) =
    Queue.push job jobs.(q);
    match Sim_chan.send chans.(q) dummy_msg with
    | sent -> assert sent
    | exception Boom -> ()
  and handler p _ =
    let job = Queue.pop jobs.(p) in
    let n, r =
      oracle (fun () ->
          ops job.body;
          if job.raises then raise Boom;
          ( 10,
            fun () ->
              let n, () =
                oracle (fun () ->
                    ops job.effect;
                    Option.iter
                      (fun q ->
                        Proc.crash procs.(q);
                        try Proc.restart procs.(q) with Boom -> ())
                      job.restart;
                    List.iter send job.sends)
              in
              expected.(p) <- expected.(p) + n ))
    in
    expected.(p) <- expected.(p) + n;
    r
  in
  Array.iteri
    (fun p proc ->
      Proc.set_on_crash proc (fun () -> ignore (oracle (fun () -> ops 1)));
      Proc.set_on_restart proc (fun ~fresh:_ -> ignore (oracle (fun () -> ops 2)));
      Proc.add_rx proc chans.(p) (handler p))
    procs;
  List.iter send top;
  (* A handler served by the drain that follows an effect raises out
     of the engine's event: the run goes on past it. *)
  let rec run () = match Engine.run e with () -> () | exception Boom -> run () in
  run ();
  Array.for_all2 (fun proc want -> Proc.pool_ops proc = want) procs expected

let test_metering_matches_the_closure_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"proc metering matches the closure-based meter"
       QCheck2.Gen.(list_size (int_range 1 6) (pair (int_bound 2) gen_job))
       metering_matches_the_closure_oracle)

let suite =
  [
    ("proc drains channel messages", `Quick, test_proc_drains_messages);
    ("proc round-robins channels", `Quick, test_proc_round_robin_fairness);
    ( "proc serves three channels in move-to-back order",
      `Quick,
      test_proc_service_order_three_channels );
    ("proc crash drops in-flight work", `Quick, test_proc_crash_drops_work);
    ("proc restart bumps incarnation", `Quick, test_proc_restart_bumps_incarnation);
    ("proc hang stops progress", `Quick, test_proc_hang_stops_progress);
    ("proc timers die with incarnation", `Quick, test_proc_timer_dies_with_incarnation);
    ("proc work serializes on its core", `Quick, test_proc_work_serializes_on_core);
    ("table II ordering matches the paper", `Quick, test_table2_ordering);
    ("table II magnitudes within band", `Quick, test_table2_magnitudes);
    ("table II TSO configs are wire-limited", `Quick, test_table2_tso_wire_limited);
    ("table II split bottleneck is TCP, not IP", `Quick, test_table2_split_bottleneck_is_tcp);
    ("wire goodput accounting", `Quick, test_wire_goodput);
    ("capacity model reacts to IPC cost", `Quick, test_capacity_cost_sensitivity);
    ("ip rx_done frees exactly its frame", `Quick, test_ip_rx_done_frees_exactly_its_frame);
    ("ip ignores a stale-generation rx_done", `Quick, test_ip_stale_rx_done_ignored);
    ("ip shard crash frees only its frames", `Quick, test_ip_shard_crash_frees_only_its_frames);
    test_metering_matches_the_closure_oracle;
  ]
