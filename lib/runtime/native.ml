module Engine = Newt_sim.Engine
module Exec = Newt_sim.Exec
module Time = Newt_sim.Time
module Rng = Newt_sim.Rng
module Machine = Newt_hw.Machine
module Cpu = Newt_hw.Cpu
module Registry = Newt_channels.Registry
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Addr = Newt_net.Addr
module Offload = Newt_nic.Offload
module Rule = Newt_pf.Rule
module Proc = Newt_stack.Proc
module Component = Newt_stack.Component
module Msg = Newt_stack.Msg
module Ip_srv = Newt_stack.Ip_srv
module Pf_srv = Newt_stack.Pf_srv
module Tcp_srv = Newt_stack.Tcp_srv
module Udp_srv = Newt_stack.Udp_srv
module Syscall_srv = Newt_stack.Syscall_srv
module Sink = Newt_stack.Sink
module Storage = Newt_reliability.Storage
module Apps = Newt_sockets.Apps
module Hook = Newt_channels.Hook
module Race = Newt_verify.Race
module Tcp = Newt_net.Tcp
module Tcpfsm = Newt_verify.Tcpfsm

type overhead = No_overhead | Kipc_trap | Copy_per_hop

(* Deliberate concurrency bugs, the --break-recovery pattern applied
   to memory ordering: each must exit 1 *through the race detector*. *)
type break_race = Spsc_two_producers | Loop_unfenced_counter

let break_race_of_string = function
  | "spsc:two-producers" -> Some Spsc_two_producers
  | "loop:unfenced-counter" -> Some Loop_unfenced_counter
  | _ -> None

let break_race_to_string = function
  | Spsc_two_producers -> "spsc:two-producers"
  | Loop_unfenced_counter -> "loop:unfenced-counter"

let break_race_modes = [ "spsc:two-producers"; "loop:unfenced-counter" ]

type config = {
  domains : int;
  seconds : float;
  seed : int;
  chan_capacity : int;
  write_size : int;
  spin_budget : int;
  never_park : bool;
  confirm_batch : int;  (** Driver TX confirms coalesced per message. *)
  overhead : overhead;  (** Channel-cost ablation (cross-validation). *)
  ping_period : float;  (** Seconds between ICMP echo probes. *)
  port : int;
  race : bool;  (** Arm the happens-before race detector. *)
  break_race : break_race option;  (** Inject a deliberate race. *)
  tcp_fsm : bool;  (** Arm the TCP conformance checker. *)
  break_tcp : Tcp.sabotage option;  (** Inject a deliberate TCP bug. *)
}

let default_config =
  {
    domains = 2;
    seconds = 2.0;
    seed = 42;
    chan_capacity = 8192;
    write_size = 8192;
    spin_budget = 2_000;
    never_park = false;
    confirm_batch = 8;
    overhead = No_overhead;
    ping_period = 0.002;
    port = 5001;
    race = false;
    break_race = None;
    tcp_fsm = false;
    break_tcp = None;
  }

(* {2 Argument validation (no silent fallback)} *)

let validate ~recommended ?(allow_oversubscribe = false) ~domains () =
  if domains < 2 then
    Error
      (Printf.sprintf
         "native mode needs at least 2 domains (one per side of a channel); \
          got --domains %d"
         domains)
  else if recommended < 2 && not allow_oversubscribe then
    Error
      (Printf.sprintf
         "native execution is unsupported here: \
          Domain.recommended_domain_count = %d (< 2). Refusing to fall back \
          to simulation; pass --allow-oversubscribe to time-slice domains on \
          too few cores, or use the simulator commands."
         recommended)
  else if domains > recommended && not allow_oversubscribe then
    Error
      (Printf.sprintf
         "--domains %d exceeds Domain.recommended_domain_count (%d); \
          oversubscribed domains would measure scheduler noise, not the \
          stack. Pass --allow-oversubscribe to force."
         domains recommended)
  else if domains > 16 then
    Error (Printf.sprintf "--domains %d: the stack has at most 8 pinnable \
                           servers plus the peer; more than 16 domains is \
                           surely a mistake" domains)
  else Ok ()

(* {2 The ownership plan}

   The static half of Verify.Race: the pinning plan below, lowered to
   a table of every mutable structure the native run creates, with its
   writers, readers and the primitive its cross-domain edges ride.
   [check_plan] then proves the discipline without running anything.
   Kept textually adjacent to [run] so a wiring change that adds a
   structure is a one-screen diff away from declaring it. *)

(* Pipeline-depth order, round-robin over the domains: slot i lands on
   domain (i mod domains), so the hot TX path (tcp -> ip -> pf -> drv)
   spreads across domains first. [run] creates the model cores in this
   order too, so core id = slot index. *)
let slots_order = [ "tcp"; "ip"; "pf"; "drv0"; "sc"; "app"; "udp"; "peer" ]

let slots_on ~domains d =
  List.filteri (fun i _ -> i mod domains = d) slots_order

(* Sentinel loop id the --break-race saboteur registers under, so its
   counterexamples read "saboteur" rather than "domain#N". *)
let saboteur_loop_id = 1000

let ownership_plan ?break_race ~domains () : Race.Plan.t =
  let open Race.Plan in
  (* "main" is the spawning thread — alive and concurrent with every
     loop, so it gets its own pseudo-domain index; "wiring" marks
     writes made before Domain.spawn publishes them. *)
  let placement =
    List.mapi (fun i n -> (n, i mod domains)) slots_order
    @ [ ("main", domains); ("wiring", -1) ]
    @
    match break_race with
    | Some Spsc_two_producers -> [ ("saboteur", domains) ]
    | _ -> []
  in
  let ring name p c extra_writers =
    {
      res = "ring " ^ name;
      kind = Ring_buf;
      owner = None;
      writers = p :: extra_writers;
      readers = [ c ];
      grants = [];
      via = Some Ring;
    }
  in
  let rings =
    [
      ring "ip.to_pf" "ip" "pf" [];
      ring "pf.to_ip" "pf" "ip" [];
      ring "tcp.to_ip" "tcp" "ip" [];
      ring "ip.to_tcp" "ip" "tcp" [];
      ring "udp.to_ip" "udp" "ip" [];
      ring "ip.to_udp" "ip" "udp" [];
      ring "sc.to_tcp" "sc" "tcp" [];
      ring "tcp.to_sc" "tcp" "sc" [];
      ring "sc.to_udp" "sc" "udp" [];
      ring "udp.to_sc" "udp" "sc" [];
      ring "ip.to_drv0" "ip" "drv0" [];
      ring "drv0.to_ip" "drv0" "ip" [];
      ring "drv0.wire_tx" "drv0" "peer" [];
      ring "drv0.wire_rx" "peer" "drv0"
        (match break_race with
        | Some Spsc_two_producers -> [ "saboteur" ]
        | _ -> []);
    ]
  in
  let comps_on d = slots_on ~domains d in
  let inboxes =
    List.init domains (fun d ->
        {
          res = Printf.sprintf "inbox d%d" d;
          kind = Inbox;
          owner = None;
          (* Anyone may post a doorbell or timer insert; the park
             mutex is exactly the sanction for that. *)
          writers = "main" :: slots_order;
          readers = comps_on d;
          grants = [];
          via = Some Park_mutex;
        })
  in
  let timers =
    List.init domains (fun d ->
        {
          res = Printf.sprintf "timers d%d" d;
          kind = Timer_wheel;
          owner = None;
          (* Armed only by code already running on the domain (the
             pre-spawn inserts travel through the inbox). *)
          writers = comps_on d;
          readers = comps_on d;
          grants = [];
          via = None;
        })
  in
  let pool name owner ~writers ~readers ~grants =
    { res = "pool " ^ name; kind = Pool; owner = Some owner; writers;
      readers; grants; via = Some Pool_lock }
  in
  let pools =
    [
      (* The driver fills granted RX buffers; IP reads and frees them. *)
      pool "ip.rx" "ip" ~writers:[ "ip"; "drv0" ] ~readers:[ "ip"; "drv0" ]
        ~grants:[ "drv0" ];
      pool "ip.hdr" "ip" ~writers:[ "ip" ] ~readers:[ "ip"; "drv0" ]
        ~grants:[];
      pool "tcp.tx" "tcp" ~writers:[ "tcp" ] ~readers:[ "tcp"; "drv0" ]
        ~grants:[];
      pool "udp.tx" "udp" ~writers:[ "udp" ] ~readers:[ "udp"; "drv0" ]
        ~grants:[];
    ]
  in
  let tables =
    [
      (* Filled at wiring time, read-only once the domains run: the
         spawn publishes it, no primitive needed. *)
      {
        res = "table registry.pools";
        kind = Table;
        owner = None;
        writers = [ "wiring" ];
        readers = [ "drv0"; "ip"; "tcp"; "udp" ];
        grants = [];
        via = None;
      };
      {
        res = "counter drv0.frames";
        kind = Counter;
        owner = None;
        writers = [ "drv0" ];
        readers = [ "drv0" ];
        grants = [];
        via = None;
      };
      {
        res = "counter peer.rtts";
        kind = Counter;
        owner = None;
        writers = [ "peer" ];
        readers = [ "peer" ];
        grants = [];
        via = None;
      };
    ]
  in
  let sabotage =
    match break_race with
    | Some Loop_unfenced_counter ->
        [
          (* Two loops increment, the main thread polls — no ring,
             atomic or mutex anywhere on the edge. *)
          {
            res = "counter sabotage.unfenced";
            kind = Counter;
            owner = None;
            writers = [ "tcp"; "ip" ];
            readers = [ "main" ];
            grants = [];
            via = None;
          };
        ]
    | _ -> []
  in
  { domains; placement; resources = rings @ inboxes @ timers @ pools @ tables @ sabotage }

(* {2 Results} *)

type ring_stat = {
  ring : string;
  sent : int;
  dropped : int;
  max_occupancy : int;
  ring_capacity : int;
}

type result = {
  domains_used : int;
  seconds_run : float;
  goodput_mbps : float;
  tcp_bytes : int;
  iperf_bytes_sent : int;
  frames_to_peer : int;
  frames_from_peer : int;
  rx_no_buffer : int;
  icmp_echoes : int;
  ping_count : int;
  ping_rtt_us_mean : float;
  ping_rtt_us_p99 : float;
  checksum_failures : int;
  rings : ring_stat list;
  loops : Loop.stats list;
  race : Race.Dynamic.outcome option;
  tcpfsm : (bool * string) option;
      (** Conformance verdict: [ok] flag plus the mcheck-shaped JSON. *)
}

let json_of_result (r : result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"mode\":\"native\",\"domains\":%d,\"seconds\":%.3f,\
        \"goodput_mbps\":%.3f,\"tcp_bytes\":%d,\"iperf_bytes_sent\":%d,\
        \"frames_to_peer\":%d,\"frames_from_peer\":%d,\"rx_no_buffer\":%d,\
        \"icmp_echoes\":%d,\"ping_count\":%d,\"ping_rtt_us_mean\":%.2f,\
        \"ping_rtt_us_p99\":%.2f,\"checksum_failures\":%d"
       r.domains_used r.seconds_run r.goodput_mbps r.tcp_bytes
       r.iperf_bytes_sent r.frames_to_peer r.frames_from_peer r.rx_no_buffer
       r.icmp_echoes r.ping_count r.ping_rtt_us_mean r.ping_rtt_us_p99
       r.checksum_failures);
  Buffer.add_string b ",\"rings\":[";
  List.iteri
    (fun i (s : ring_stat) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"ring\":\"%s\",\"sent\":%d,\"dropped\":%d,\
            \"max_occupancy\":%d,\"capacity\":%d}"
           s.ring s.sent s.dropped s.max_occupancy s.ring_capacity))
    r.rings;
  Buffer.add_string b "],\"loops\":[";
  List.iteri
    (fun i (s : Loop.stats) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"domain\":%d,\"pinned\":[%s],\"parks\":%d,\"wakes\":%d,\
            \"posts_remote\":%d,\"posts_self\":%d,\"timer_fires\":%d,\
            \"executed\":%d}"
           s.Loop.index
           (String.concat ","
              (List.map (fun n -> "\"" ^ n ^ "\"") s.Loop.pinned))
           s.Loop.parks s.Loop.wakes s.Loop.posts_remote s.Loop.posts_self
           s.Loop.timer_fires s.Loop.executed))
    r.loops;
  Buffer.add_string b "]";
  (match r.race with
  | None -> ()
  | Some o ->
      Buffer.add_string b ",\"race\":";
      Buffer.add_string b (Race.Dynamic.to_json ~title:"native race detector" o));
  (match r.tcpfsm with
  | None -> ()
  | Some (_, js) ->
      Buffer.add_string b ",\"tcpfsm\":";
      Buffer.add_string b js);
  Buffer.add_string b "}";
  Buffer.contents b

(* {2 Doorbells}

   A cross-domain kick with at-most-one outstanding post: ring after
   every push, pay one atomic exchange, run the drain once. *)

let doorbell loop f =
  let posted = Atomic.make false in
  fun () ->
    if not (Atomic.exchange posted true) then
      Loop.post loop (fun () ->
          Atomic.set posted false;
          f ())

(* {2 The run} *)

let run (cfg : config) : result =
  let n_domains = cfg.domains in
  (* Wall clock in model cycles (the paper's 1.9 GHz testbed scale). *)
  let epoch = Unix.gettimeofday () in
  let now () =
    int_of_float
      ((Unix.gettimeofday () -. epoch) *. float_of_int Time.cycles_per_second)
  in
  let loops =
    Array.init n_domains (fun index ->
        Loop.create ~index ~now ~spin_budget:cfg.spin_budget
          ~never_park:cfg.never_park ())
  in
  let loop_of_slot =
    Array.of_list (List.mapi (fun i _ -> loops.(i mod n_domains)) slots_order)
  in
  List.iteri (fun i name -> Loop.add_name loop_of_slot.(i) name) slots_order;
  let slot_index name =
    let rec find i = function
      | n :: rest -> if n = name then i else find (i + 1) rest
      | [] -> invalid_arg name
    in
    find 0 slots_order
  in
  let peer_loop = loop_of_slot.(slot_index "peer") in
  (* {3 Race detector arming}

     Armed before any wiring so pre-spawn posts and pool traffic are
     clock-tracked from the first event; ownership claims on the rings
     only bind after the spawn fence below. *)
  let race_wanted = cfg.race || cfg.break_race <> None in
  let ring_names : (int * string) list ref = ref [] in
  if race_wanted then begin
    let loop_label i =
      if i = saboteur_loop_id then "saboteur"
      else
        Printf.sprintf "loop%d(%s)" i
          (String.concat "+" (slots_on ~domains:n_domains i))
    in
    Race.Dynamic.arm
      ~labels:
        {
          Race.Dynamic.ring_name =
            (fun id ->
              match List.assoc_opt id !ring_names with
              | Some n -> "ring " ^ n
              | None -> Printf.sprintf "ring#%d" id);
          pool_name = (fun id -> Printf.sprintf "pool#%d" id);
          counter_name =
            (fun id ->
              if id = 1 then "counter sabotage.unfenced"
              else Printf.sprintf "counter#%d" id);
          loop_name = loop_label;
        }
      ()
  end;
  (* {3 TCP conformance checker arming}

     Armed before any engine exists so the very first handshake is
     judged; events arrive from the tcp and peer domains and are
     serialized on the checker's own mutex. *)
  let fsm_wanted = cfg.tcp_fsm || cfg.break_tcp <> None in
  if fsm_wanted then Tcpfsm.install ();
  (* Model-core id -> loop. Cores are created in slot order (minus the
     peer, which is not a machine core), so core id = slot index. *)
  let core_loop core = loop_of_slot.(core) in
  let exec =
    Exec.native ~now
      ~schedule:(fun ~core delay k -> Loop.schedule (core_loop core) delay k)
      ~post:(fun ~core k -> Loop.post (core_loop core) k)
  in
  (* The engine exists only as the deterministic RNG root; all time and
     scheduling go through [exec]. *)
  let engine = Engine.create ~seed:cfg.seed () in
  let machine = Machine.create ~exec engine in
  Pool.set_default_threadsafe true;
  Fun.protect ~finally:(fun () ->
      Pool.set_default_threadsafe false;
      (* Harmless if the checkers were already disarmed; vital if a
         domain died. *)
      if race_wanted then ignore (Race.Dynamic.disarm ());
      if fsm_wanted then Tcpfsm.uninstall ();
      Proc.set_send_overhead None)
  @@ fun () ->
  (match cfg.overhead with
  | No_overhead -> Proc.set_send_overhead None
  | Kipc_trap ->
      (* Every channel enqueue becomes a kernel trap: a serializing
         round trip through one global "kernel" lock. *)
      let kernel = Mutex.create () in
      Proc.set_send_overhead
        (Some
           (fun () ->
             Mutex.lock kernel;
             ignore (Sys.opaque_identity (ref 0));
             Mutex.unlock kernel))
  | Copy_per_hop ->
      (* Zero copy disabled: two extra MSS-sized copies per message
         (transport->IP and IP->driver), as in the cost-model ablation. *)
      let src = Bytes.create 1460 and dst = Bytes.create 1460 in
      Proc.set_send_overhead
        (Some
           (fun () ->
             Bytes.blit src 0 dst 0 1460;
             Bytes.blit dst 0 src 0 1460)));
  let tcp_core = Machine.add_dedicated_core machine in
  let ip_core = Machine.add_dedicated_core machine in
  let pf_core = Machine.add_dedicated_core machine in
  let drv_core = Machine.add_dedicated_core machine in
  let sc_core = Machine.add_dedicated_core machine in
  let app_core = Machine.add_timeshared_core machine in
  let udp_core = Machine.add_dedicated_core machine in
  assert (Cpu.id tcp_core = slot_index "tcp");
  assert (Cpu.id app_core = slot_index "app");
  let registry = Registry.create () in
  (* Each server gets its own storage instance: state saves happen on
     the server's domain, and nothing may share a hashtable across
     domains. *)
  let view name =
    Storage.owner_view (Storage.create ()) ~owner:name
  in
  let mkcomp name core = Component.create machine ~name ~core () in
  let sc_comp = mkcomp "sc" sc_core in
  let tcp_comp = mkcomp "tcp" tcp_core in
  let udp_comp = mkcomp "udp" udp_core in
  let ip_comp = mkcomp "ip" ip_core in
  let pf_comp = mkcomp "pf" pf_core in
  let drv_comp = mkcomp "drv0" drv_core in
  let save_ip, load_ip = view "ip" in
  let save_pf, load_pf = view "pf" in
  let save_tcp, load_tcp = view "tcp" in
  let save_udp, load_udp = view "udp" in
  let host_addr = Addr.Ipv4.v 10 0 0 1 in
  let peer_addr = Addr.Ipv4.v 10 0 0 2 in
  let sc_srv = Syscall_srv.create sc_comp () in
  let tcp_srv =
    Tcp_srv.create tcp_comp ~registry ~local_addr:host_addr ~save:save_tcp
      ~load:load_tcp ()
  in
  (* Sabotage: Ack_from_closed plants the engine-level bug now; the
     Stale_established crash-and-resurrect is scheduled below. *)
  Tcp_srv.set_break_tcp tcp_srv cfg.break_tcp;
  let udp_srv =
    Udp_srv.create udp_comp ~registry ~local_addr:host_addr ~save:save_udp
      ~load:load_udp ()
  in
  let ip_srv = Ip_srv.create ip_comp ~registry ~save:save_ip ~load:load_ip () in
  let pf_srv = Pf_srv.create pf_comp ~save:save_pf ~load:load_pf () in
  (* Channels: real SPSC rings. *)
  let chan_ids = ref 0 in
  (* Stat readers, not the channels themselves: message rings and the
     Bytes wire rings have different element types. *)
  let ring_stats : (unit -> ring_stat) list ref = ref [] in
  let chan ?capacity name =
    incr chan_ids;
    ring_names := (!chan_ids, name) :: !ring_names;
    let capacity = Option.value capacity ~default:cfg.chan_capacity in
    let c = Sim_chan.create_native ~capacity ~id:!chan_ids () in
    ring_stats :=
      !ring_stats
      @ [
          (fun () ->
            {
              ring = name;
              sent = Sim_chan.sent_total c;
              dropped = Sim_chan.dropped_total c;
              max_occupancy = Sim_chan.max_occupancy c;
              ring_capacity = Sim_chan.capacity c;
            });
        ];
    c
  in
  let ch_ip_to_pf = chan "ip.to_pf" and ch_pf_to_ip = chan "pf.to_ip" in
  Ip_srv.connect_pf ip_srv ~to_pf:ch_ip_to_pf ~from_pf:ch_pf_to_ip;
  Pf_srv.connect_ip pf_srv ~from_ip:ch_ip_to_pf ~to_ip:ch_pf_to_ip;
  let ch_tcp_to_ip = chan "tcp.to_ip" and ch_ip_to_tcp = chan "ip.to_tcp" in
  Ip_srv.connect_transport ip_srv ~proto:`Tcp ~from_transport:ch_tcp_to_ip
    ~to_transport:ch_ip_to_tcp;
  Tcp_srv.connect_ip tcp_srv ~to_ip:ch_tcp_to_ip ~from_ip:ch_ip_to_tcp;
  let ch_udp_to_ip = chan "udp.to_ip" and ch_ip_to_udp = chan "ip.to_udp" in
  Ip_srv.connect_transport ip_srv ~proto:`Udp ~from_transport:ch_udp_to_ip
    ~to_transport:ch_ip_to_udp;
  Udp_srv.connect_ip udp_srv ~to_ip:ch_udp_to_ip ~from_ip:ch_ip_to_udp;
  let ch_sc_to_tcp = chan "sc.to_tcp" and ch_tcp_to_sc = chan "tcp.to_sc" in
  Syscall_srv.connect_transport sc_srv ~transport:`Tcp
    ~to_transport:ch_sc_to_tcp ~from_transport:ch_tcp_to_sc;
  Tcp_srv.connect_sc tcp_srv ~from_sc:ch_sc_to_tcp ~to_sc:ch_tcp_to_sc;
  let ch_sc_to_udp = chan "sc.to_udp" and ch_udp_to_sc = chan "udp.to_sc" in
  Syscall_srv.connect_transport sc_srv ~transport:`Udp
    ~to_transport:ch_sc_to_udp ~from_transport:ch_udp_to_sc;
  Udp_srv.connect_sc udp_srv ~from_sc:ch_sc_to_udp ~to_sc:ch_udp_to_sc;
  (* The wire: raw Ethernet frames on two more SPSC rings, driver on
     one side, the ideal peer host on the other. *)
  let wire_to_peer = chan ~capacity:4096 "drv0.wire_tx" in
  let wire_to_host = chan ~capacity:4096 "drv0.wire_rx" in
  (* {3 The native driver}

     Plays E1000 + Drv_srv in one component: consumes [Drv_tx],
     materializes frames (scatter-gather + TSO split + checksum fill,
     the same offload engines the simulated NIC uses) and pushes them
     onto the wire; drains the inbound wire into granted RX-pool
     buffers and hands them up as [Rx_frame]. *)
  let drv_proc = Component.proc drv_comp in
  let frames_to_peer = ref 0 in
  let frames_from_peer = ref 0 in
  let rx_no_buffer = ref 0 in
  let rx_alloc = ref (fun () -> None) in
  let rx_write = ref (fun _ _ -> ()) in
  let drv_tx_to_ip = ref None in
  let pending_confirms = ref [] in
  let flush_confirms () =
    match (!pending_confirms, !drv_tx_to_ip) with
    | [], _ | _, None -> ()
    | [ id ], Some chan ->
        pending_confirms := [];
        ignore (Proc.send drv_proc chan (Msg.Drv_tx_confirm { id; ok = true }))
    | ids, Some chan ->
        pending_confirms := [];
        ignore
          (Proc.send drv_proc chan
             (Msg.Drv_tx_confirm_batch { ids = List.rev ids; ok = true }))
  in
  let handle_drv_msg msg =
    match msg with
    | Msg.Drv_tx { id; chain; csum_offload; tso; tso_mss; queue = _ } ->
        ( 0,
          fun () ->
            let frames =
              match Registry.gather registry chain with
              | frame ->
                  if tso then Offload.tso_split frame ~mss:tso_mss
                  else begin
                    if csum_offload then
                      ignore (Offload.finalize_l4_checksum frame);
                    [ frame ]
                  end
              | exception
                  ( Registry.Unknown_pool _
                  | Newt_channels.Pool.Stale_pointer _ ) ->
                  []
            in
            List.iter
              (fun frame ->
                if Sim_chan.send wire_to_peer frame then incr frames_to_peer)
              frames;
            pending_confirms := id :: !pending_confirms;
            if List.length !pending_confirms >= cfg.confirm_batch then
              flush_confirms () )
    | _ -> (0, fun () -> ())
  in
  let rec arm_confirm_flush () =
    Proc.after drv_proc (Time.of_micros 500.) ~cost:0 (fun () ->
        flush_confirms ();
        arm_confirm_flush ())
  in
  let hooks =
    {
      Ip_srv.drv_connect =
        (fun ~rx_from_ip ~tx_to_ip ->
          drv_tx_to_ip := Some tx_to_ip;
          Component.produce drv_comp tx_to_ip;
          Component.consume drv_comp rx_from_ip handle_drv_msg);
      drv_grant_rx_pool =
        (fun ~alloc ~write ->
          rx_alloc := alloc;
          rx_write := write);
      drv_on_ip_crash = (fun () -> ());
      drv_on_ip_restart = (fun () -> ());
    }
  in
  let iface =
    Ip_srv.add_iface_custom ip_srv
      {
        Ip_srv.addr = host_addr;
        netmask_bits = 24;
        mac = Addr.Mac.of_index 100;
      }
      ~hooks ~tx_chan:(chan "ip.to_drv0") ~rx_chan:(chan "drv0.to_ip")
  in
  Ip_srv.add_route ip_srv ~prefix:(Addr.Ipv4.v 10 0 0 0) ~bits:24 ~iface
    ~gateway:None;
  Ip_srv.add_neighbor ip_srv ~iface peer_addr (Addr.Mac.of_index 200);
  let src_select dst =
    match Ip_srv.src_addr_for ip_srv dst with
    | Some a -> a
    | None -> host_addr
  in
  Tcp_srv.set_src_select tcp_srv src_select;
  Udp_srv.set_src_select udp_srv src_select;
  Pf_srv.set_rules pf_srv [ Rule.pass_all ];
  (* Conntrack snapshots would read the transports' tables from the
     PF domain; natively the sweep runs with no sources instead. *)
  Pf_srv.set_conntrack_sources pf_srv ~tcp:(fun () -> []) ~udp:(fun () -> []);
  (* Inbound wire -> driver. *)
  let drv_loop = loop_of_slot.(slot_index "drv0") in
  let drain_wire_rx () =
    let rec go () =
      match Sim_chan.recv wire_to_host with
      | None -> ()
      | Some frame -> (
          incr frames_from_peer;
          match !rx_alloc () with
          | None -> incr rx_no_buffer
          | Some buf ->
              !rx_write buf frame;
              (match !drv_tx_to_ip with
              | Some chan ->
                  ignore
                    (Proc.send drv_proc chan
                       (Msg.Rx_frame { buf; len = Bytes.length frame }))
              | None -> ());
              go ())
    in
    go ()
  in
  Sim_chan.set_notify wire_to_host (doorbell drv_loop drain_wire_rx);
  (* {3 The peer host} *)
  let peer_rng = Rng.split (Engine.rng engine) in
  let peer_io =
    {
      Sink.io_now = now;
      io_timer = (fun delay k -> Loop.schedule peer_loop delay k);
      io_emit = (fun frame -> ignore (Sim_chan.send wire_to_host frame));
      io_random = (fun bound -> Rng.int peer_rng bound);
    }
  in
  let peer =
    Sink.create_io peer_io ~addr:peer_addr ~mac:(Addr.Mac.of_index 200) ()
  in
  let drain_wire_tx () =
    let rec go () =
      match Sim_chan.recv wire_to_peer with
      | None -> ()
      | Some frame ->
          Sink.handle_frame peer frame;
          go ()
    in
    go ()
  in
  Sim_chan.set_notify wire_to_peer (doorbell peer_loop drain_wire_tx);
  (* {3 Workload: iperf-style bulk + the split-stack ping path} *)
  let tcp_bytes = ref 0 in
  Sink.sink_tcp peer ~port:cfg.port ~on_bytes:(fun ~at:_ n ->
      tcp_bytes := !tcp_bytes + n);
  let app = { Syscall_srv.app_core; app_pid = 10_000 } in
  let iperf =
    Apps.Iperf.start machine ~sc:sc_srv ~app ~dst:peer_addr ~port:cfg.port
      ~write_size:cfg.write_size
      ~until:(Time.of_seconds cfg.seconds)
      ()
  in
  let ping_rtts = ref [] in
  let ping_deadline = Time.of_seconds cfg.seconds in
  let rec ping_loop () =
    if now () < ping_deadline then begin
      Sink.ping peer ~dst:host_addr (fun ~rtt ->
          ping_rtts := rtt :: !ping_rtts);
      let (_cancel : unit -> unit) =
        Loop.schedule peer_loop (Time.of_seconds cfg.ping_period) ping_loop
      in
      ()
    end
  in
  Loop.post peer_loop ping_loop;
  (* With the conformance checker riding, the peer also probes a port
     nobody listens on: a correct DUT answers every probe RST-from-
     Closed (legal, Table I); the Ack_from_closed sabotage answers
     with a bare ACK the checker's segment table must reject. *)
  if fsm_wanted then begin
    let probe_port = ref 40_000 in
    let rec probe_loop () =
      if now () < ping_deadline then begin
        incr probe_port;
        Sink.send_tcp_syn peer ~src:peer_addr ~src_port:!probe_port
          ~dst:host_addr ~dst_port:9;
        ignore
          (Loop.schedule peer_loop (Time.of_seconds 0.05) probe_loop
            : unit -> unit)
      end
    in
    Loop.post peer_loop probe_loop
  end;
  (* Stale_established: mid-run, on the TCP server's own domain, the
     engine "crashes" (Table I teardown) and comes back with its old
     Established PCBs forged — the checker must see Closed→Established
     with no handshake. *)
  (match cfg.break_tcp with
  | Some Tcp.Stale_established ->
      let tcp_loop = loop_of_slot.(slot_index "tcp") in
      ignore
        (Loop.schedule tcp_loop
           (Time.of_seconds (0.5 *. cfg.seconds))
           (fun () ->
             let engine = Tcp_srv.engine tcp_srv in
             let tuples = Tcp.established_tuples engine in
             Tcp.shutdown_all engine;
             Tcp.resurrect engine tuples)
          : unit -> unit)
  | Some Tcp.Ack_from_closed | None -> ());
  Loop.post drv_loop arm_confirm_flush;
  (* {3 Sabotage: deliberate races that must fail through the detector} *)
  let unfenced_counter = ref 0 in
  (match cfg.break_race with
  | Some Loop_unfenced_counter ->
      (* Two loops hammer a plain shared int from timers; nothing
         orders the bursts. The main thread also polls it during its
         sleep (below), which is unordered with the loops by
         construction — no incidental ring traffic can save it. *)
      let arm_on l =
        let rec tick () =
          for _ = 1 to 8 do
            incr unfenced_counter;
            Hook.native_access Hook.N_counter ~id:1 ~sub:0 ~write:true
          done;
          ignore (Loop.schedule l (Time.of_micros 200.) tick : unit -> unit)
        in
        ignore (Loop.schedule l (Time.of_micros 200.) tick : unit -> unit)
      in
      arm_on loops.(0);
      arm_on loops.(1)
  | _ -> ());
  let saboteur_stop = Atomic.make false in
  let spawn_saboteur () =
    (* A second producer on drv0.wire_rx — the peer's ring. The junk
       frames parse as garbage and are dropped upstream; the crime is
       the push itself, from a domain that does not own the ring. *)
    Domain.spawn (fun () ->
        (* Register under a name (and pick up the spawn-fence clock —
           Domain.spawn really does order the wiring before us). *)
        Hook.native_emit (Hook.N_loop_start { loop = saboteur_loop_id });
        let junk = Bytes.make 60 '\000' in
        while not (Atomic.get saboteur_stop) do
          for _ = 1 to 16 do
            ignore (Sim_chan.send wire_to_host junk)
          done;
          Unix.sleepf 0.001
        done)
  in
  (* {3 Spawn, run, stop, join} *)
  (* Wiring is done: publish it to the detector. Everything above
     happens-before every loop body (Domain.spawn edge); ring
     ownership claims start here. *)
  if race_wanted then Race.Dynamic.fence ();
  let domains_h = Array.map (fun l -> Domain.spawn (fun () -> Loop.run l)) loops in
  let saboteur =
    match cfg.break_race with
    | Some Spsc_two_producers -> Some (spawn_saboteur ())
    | _ -> None
  in
  (* Sliced sleep rather than one big sleepf: the unfenced-counter
     sabotage wants the main thread to read the counter mid-run. *)
  let sleep_until deadline =
    let rec go () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining > 0. then begin
        Unix.sleepf (Float.min remaining 0.05);
        (match cfg.break_race with
        | Some Loop_unfenced_counter ->
            ignore (Sys.opaque_identity !unfenced_counter);
            Hook.native_access Hook.N_counter ~id:1 ~sub:0 ~write:false
        | _ -> ());
        go ()
      end
    in
    go ()
  in
  sleep_until (epoch +. cfg.seconds);
  (* Grace: let retransmissions and final confirms drain. *)
  Unix.sleepf 0.25;
  Atomic.set saboteur_stop true;
  Option.iter Domain.join saboteur;
  Array.iter Loop.request_stop loops;
  Array.iter Domain.join domains_h;
  (* Disarm before touching any cross-domain state from this thread:
     the post-join stat reads are ordered by Domain.join, which the
     detector does not model. *)
  let race_outcome =
    if race_wanted then Some (Race.Dynamic.disarm ()) else None
  in
  let fsm_outcome =
    if fsm_wanted then begin
      let ok = Tcpfsm.violations () = [] in
      let js = Tcpfsm.verdict_json () in
      Tcpfsm.uninstall ();
      Some (ok, js)
    end
    else None
  in
  Array.iter
    (fun l ->
      match Loop.failure l with
      | Some e ->
          failwith
            (Printf.sprintf "native domain %d died: %s" (Loop.index l)
               (Printexc.to_string e))
      | None -> ())
    loops;
  let elapsed = cfg.seconds in
  let rtts = List.rev_map Time.to_seconds !ping_rtts in
  let n_pings = List.length rtts in
  let rtt_mean_us =
    if n_pings = 0 then 0.
    else List.fold_left ( +. ) 0. rtts /. float_of_int n_pings *. 1e6
  in
  let rtt_p99_us =
    if n_pings = 0 then 0.
    else begin
      let sorted = List.sort compare rtts in
      let idx = min (n_pings - 1) (n_pings * 99 / 100) in
      List.nth sorted idx *. 1e6
    end
  in
  {
    domains_used = n_domains;
    seconds_run = elapsed;
    goodput_mbps = float_of_int !tcp_bytes *. 8. /. elapsed /. 1e6;
    tcp_bytes = !tcp_bytes;
    iperf_bytes_sent = Apps.Iperf.bytes_sent iperf;
    frames_to_peer = !frames_to_peer;
    frames_from_peer = !frames_from_peer;
    rx_no_buffer = !rx_no_buffer;
    icmp_echoes = Ip_srv.icmp_echoes_answered ip_srv;
    ping_count = n_pings;
    ping_rtt_us_mean = rtt_mean_us;
    ping_rtt_us_p99 = rtt_p99_us;
    checksum_failures = Sink.checksum_failures peer;
    rings = List.map (fun f -> f ()) !ring_stats;
    loops = Array.to_list (Array.map Loop.stats loops);
    race = race_outcome;
    tcpfsm = fsm_outcome;
  }
