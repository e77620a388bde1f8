(* Tests for lib/scale: the shard map (determinism, symmetry, reverse
   port selection, rebalancing), the sharded stack's throughput scaling,
   the flow→shard affinity invariant, and per-shard crash recovery. *)

module Time = Newt_sim.Time
module Addr = Newt_net.Addr
module Pubsub = Newt_channels.Pubsub
module Rss = Newt_nic.Rss
module Mq = Newt_nic.Mq_e1000
module Ip_srv = Newt_stack.Ip_srv
module Sink = Newt_stack.Sink
module Apps = Newt_sockets.Apps
module Shard_map = Newt_scale.Shard_map
module S = Newt_scale.Sharded_stack
module E = Newt_core.Experiments

let ip = Addr.Ipv4.v

(* {2 Shard_map} *)

let test_shard_map_deterministic_symmetric () =
  let sm = Shard_map.create ~shards:4 () in
  let sm' = Shard_map.create ~shards:4 () in
  for i = 0 to 199 do
    let src = ip 10 0 0 (i mod 8) and dst = ip 10 0 1 2 in
    let sport = 49152 + i and dport = 5001 in
    let s = Shard_map.shard_of sm ~src ~sport ~dst ~dport in
    Alcotest.(check int) "same seed, same steering" s
      (Shard_map.shard_of sm' ~src ~sport ~dst ~dport);
    Alcotest.(check int) "symmetric in the endpoints" s
      (Shard_map.shard_of sm ~src:dst ~sport:dport ~dst:src ~dport:sport);
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4)
  done

let test_shard_map_spreads () =
  let sm = Shard_map.create ~shards:4 () in
  let seen = Array.make 4 0 in
  for sport = 49152 to 49152 + 511 do
    let s =
      Shard_map.shard_of sm ~src:(ip 10 0 0 1) ~sport ~dst:(ip 10 0 0 2)
        ~dport:5001
    in
    seen.(s) <- seen.(s) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "every shard gets flows" true (c > 64))
    seen

let test_port_for_shard () =
  let sm = Shard_map.create ~shards:4 () in
  for shard = 0 to 3 do
    for _ = 1 to 50 do
      match
        Shard_map.port_for_shard sm ~shard ~src:(ip 10 0 0 1)
          ~dst:(ip 10 0 0 2) ~dst_port:5001 ()
      with
      | Error `Exhausted -> Alcotest.fail "port scan failed"
      | Ok sport ->
          Alcotest.(check bool) "ephemeral range" true
            (sport >= 49152 && sport < 65536);
          Alcotest.(check int) "hashes back to the asking shard" shard
            (Shard_map.shard_of sm ~src:(ip 10 0 0 1) ~sport
               ~dst:(ip 10 0 0 2) ~dport:5001)
    done
  done

let test_port_for_shard_exhaustion () =
  let sm = Shard_map.create ~shards:4 () in
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  (* Claim every port the map could hand shard 0 for this destination;
     the next request must fail loudly instead of reusing one. *)
  let taken = Hashtbl.create 4096 in
  let rec drain n =
    match
      Shard_map.port_for_shard sm ~in_use:(Hashtbl.mem taken) ~shard:0 ~src
        ~dst ~dst_port:5001 ()
    with
    | Ok p ->
        Alcotest.(check bool) "no port handed out twice" false
          (Hashtbl.mem taken p);
        Hashtbl.replace taken p ();
        drain (n + 1)
    | Error `Exhausted -> n
  in
  let handed = drain 0 in
  Alcotest.(check bool) "a quarter-ish of the range served first" true
    (handed > 2048);
  (* Exhaustion is sticky while the ports stay bound... *)
  (match
     Shard_map.port_for_shard sm ~in_use:(Hashtbl.mem taken) ~shard:0 ~src
       ~dst ~dst_port:5001 ()
   with
  | Error `Exhausted -> ()
  | Ok _ -> Alcotest.fail "expected exhaustion");
  (* ... and one free port is found again even in a full range. *)
  let freed = 49152 + ((Hashtbl.hash dst * 7) mod 16384) in
  let freed =
    (* pick a port we actually handed to shard 0 *)
    if Hashtbl.mem taken freed then freed
    else Hashtbl.fold (fun p () _ -> p) taken freed
  in
  Hashtbl.remove taken freed;
  match
    Shard_map.port_for_shard sm ~in_use:(Hashtbl.mem taken) ~shard:0 ~src
      ~dst ~dst_port:5001 ()
  with
  | Ok p -> Alcotest.(check int) "the freed port is rediscovered" freed p
  | Error `Exhausted -> Alcotest.fail "freed port not found"

let test_imbalance () =
  Alcotest.(check (float 1e-9)) "balanced" 1.0
    (Shard_map.imbalance ~loads:[| 5.; 5.; 5.; 5. |]);
  Alcotest.(check (float 1e-9)) "empty is defined" 1.0
    (Shard_map.imbalance ~loads:[||]);
  Alcotest.(check (float 1e-9)) "all load on one shard" 4.0
    (Shard_map.imbalance ~loads:[| 8.; 0.; 0.; 0. |])

let test_rebalance_moves_buckets () =
  let sm = Shard_map.create ~shards:4 () in
  let moved = Shard_map.rebalance sm ~loads:[| 1000.; 10.; 10.; 10. |] in
  Alcotest.(check bool) "buckets moved" true (moved > 0);
  let table = Rss.table (Shard_map.rss sm) in
  let count q =
    Array.fold_left (fun acc x -> if x = q then acc + 1 else acc) 0 table
  in
  Alcotest.(check bool) "the hot shard donated buckets" true
    (count 0 < Array.length table / 4);
  Alcotest.(check bool) "every shard still owns buckets" true
    (count 0 > 0 && count 1 > 0 && count 2 > 0 && count 3 > 0);
  (* Balanced load: nothing to do. *)
  let sm2 = Shard_map.create ~shards:4 () in
  Alcotest.(check int) "balanced load moves nothing" 0
    (Shard_map.rebalance sm2 ~loads:[| 7.; 7.; 7.; 7. |])

(* {2 Throughput scaling (the tentpole's acceptance numbers)} *)

let test_scaling_curve () =
  let r = E.scaling_curve ~shard_counts:[ 1; 2; 4 ] ~flows:8 ~duration:0.2 () in
  match r.E.points with
  | [ p1; p2; p4 ] ->
      Alcotest.(check bool) "2 shards beat 1" true
        (p2.E.goodput_gbps > p1.E.goodput_gbps);
      Alcotest.(check bool) "4 shards beat 2" true
        (p4.E.goodput_gbps > p2.E.goodput_gbps);
      Alcotest.(check bool) "at least 2.5x at 4 shards" true
        (p4.E.goodput_gbps >= 2.5 *. p1.E.goodput_gbps);
      Alcotest.(check bool) "1 shard near the Table II ceiling" true
        (p1.E.goodput_gbps <= r.E.single_instance_gbps *. 1.05);
      List.iter
        (fun (p : E.scaling_point) ->
          Alcotest.(check int)
            (Printf.sprintf "affinity invariant at %d shards" p.E.shards)
            0 p.E.violations)
        [ p1; p2; p4 ];
      (* All four shards pulled their weight. *)
      Array.iter
        (fun (s : S.shard_stats) ->
          Alcotest.(check bool) "every shard sent segments" true
            (s.S.segs_out > 1000))
        p4.E.per_shard
  | _ -> Alcotest.fail "expected three points"

(* {2 Per-shard crash recovery} *)

let test_shard_crash_recovery () =
  let config = { S.default_config with S.shards = 2; link_gbps = 10.0 } in
  let s = S.create ~config () in
  let received = Array.make 2 0 in
  for i = 0 to 1 do
    Sink.sink_tcp (S.sink s) ~port:(5001 + i) ~on_bytes:(fun ~at:_ n ->
        received.(i) <- received.(i) + n)
  done;
  (* Two paced (non-saturating) flows; placement is round-robin so they
     land on distinct shards. *)
  let iperfs =
    Array.init 2 (fun i ->
        Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s)
          ~dst:(S.sink_addr s) ~port:(5001 + i) ~write_size:1460
          ~pace:(Time.of_micros 100.) ~until:(Time.of_seconds 1.0) ())
  in
  S.at s (Time.of_seconds 0.2) (fun () -> S.kill_shard s 0);
  S.run s ~until:(Time.of_seconds 1.3);
  Alcotest.(check int) "killed shard restarted once" 1 (S.shard_restarts s 0);
  Alcotest.(check int) "other shard untouched" 0 (S.shard_restarts s 1);
  (* Which flow rode the killed shard is visible in the error counts. *)
  let crashed = if Apps.Iperf.errors iperfs.(0) > 0 then 0 else 1 in
  let surviving = 1 - crashed in
  Alcotest.(check bool) "exactly one flow saw the crash" true
    (Apps.Iperf.errors iperfs.(crashed) > 0
    && Apps.Iperf.errors iperfs.(surviving) = 0);
  (* Zero lost segments on the surviving shard: every byte written by
     its iperf arrived at the sink. *)
  Alcotest.(check int) "surviving flow lost nothing"
    (Apps.Iperf.bytes_sent iperfs.(surviving))
    received.(surviving);
  Alcotest.(check int) "no corruption on the wire" 0
    (Sink.checksum_failures (S.sink s));
  (* The crashed flow reconnected (onto the reincarnated shard) and
     made progress again. *)
  Alcotest.(check bool) "crashed flow reconnected" true
    (Apps.Iperf.connects iperfs.(crashed) >= 2);
  Alcotest.(check bool) "crashed flow resumed" true
    (received.(crashed) > 0);
  Alcotest.(check int) "affinity held across the crash" 0
    (S.steering_violations s);
  (* The device really did steer to both queues. *)
  let per_queue = Mq.rx_queue_packets (S.nic s) in
  Alcotest.(check bool) "both RX queues carried frames" true
    (per_queue.(0) > 0 && per_queue.(1) > 0)

(* {2 Replicated IP servers} *)

(* The directory encoding of an ARP binding (see Sharded_stack): the
   MAC rides the [chan_id] field as a 48-bit integer. *)
let mac_to_int m =
  Array.fold_left (fun acc o -> (acc lsl 8) lor o) 0 (Addr.Mac.to_octets m)

let test_ip_replication_lifts_plateau () =
  let r1 = E.scaling_curve ~shard_counts:[ 8 ] ~flows:8 ~duration:0.2 () in
  let r2 =
    E.scaling_curve ~shard_counts:[ 8 ] ~ip_replicas:2 ~flows:8 ~duration:0.2 ()
  in
  match (r1.E.points, r2.E.points) with
  | [ p1 ], [ p2 ] ->
      Alcotest.(check int) "two replicas ran" 2 p2.E.ip_replicas;
      Alcotest.(check bool)
        (Printf.sprintf
           "replicated IP beats the single-IP plateau (%.2f vs %.2f Gbps)"
           p2.E.goodput_gbps p1.E.goodput_gbps)
        true
        (p2.E.goodput_gbps > p1.E.goodput_gbps *. 1.3);
      Alcotest.(check int) "affinity invariant held (r=1)" 0 p1.E.violations;
      Alcotest.(check int) "affinity invariant held (r=2)" 0 p2.E.violations;
      Array.iter
        (fun (st : S.shard_stats) ->
          Alcotest.(check bool) "every shard pulled its weight" true
            (st.S.segs_out > 1000))
        p2.E.per_shard
  | _ -> Alcotest.fail "expected one point each"

let test_arp_learn_broadcast () =
  let config = { S.default_config with S.shards = 2; S.ip_replicas = 2 } in
  let s = S.create ~config () in
  let mac = Addr.Mac.of_index 77 in
  let addr = ip 10 0 0 99 in
  (* A binding announced under the shared prefix reaches every
     replica's cache through the live subscription. *)
  Pubsub.publish (S.directory s)
    ~key:(Printf.sprintf "arp.0.%s" (Addr.Ipv4.to_string addr))
    ~creator:(-1) ~chan_id:(mac_to_int mac);
  for k = 0 to 1 do
    match Ip_srv.arp_lookup (S.ip_replica s k) ~iface:0 addr with
    | Some m ->
        Alcotest.(check bool)
          (Printf.sprintf "replica %d converged" k)
          true (Addr.Mac.equal m mac)
    | None -> Alcotest.fail "replica cache did not converge"
  done;
  (* A reincarnated replica comes back with a flushed cache and
     re-warms it from the directory replay — no new ARP traffic. *)
  S.at s (Time.of_seconds 0.1) (fun () -> S.kill_ip_replica s 1);
  S.run s ~until:(Time.of_seconds 1.0);
  Alcotest.(check int) "replica restarted" 1 (S.ip_replica_restarts s 1);
  Alcotest.(check int) "sibling untouched" 0 (S.ip_replica_restarts s 0);
  (match Ip_srv.arp_lookup (S.ip_replica s 1) ~iface:0 addr with
  | Some m ->
      Alcotest.(check bool) "re-warmed after restart" true (Addr.Mac.equal m mac)
  | None -> Alcotest.fail "flushed cache was not re-warmed");
  match Ip_srv.arp_lookup (S.ip_replica s 1) ~iface:0 (S.sink_addr s) with
  | Some _ -> ()
  | None -> Alcotest.fail "static peer binding lost after restart"

(* The driver's hooks pick the recovery by how many IP replicas share
   the device: a sole IP owns it all, so its restart takes the
   link-bouncing whole-device reset (Section V-D); one of two replicas
   reprograms only its own queues and the link stays up. *)
let test_ip_crash_reset_scope () =
  let link_up_after_crash ~ip_replicas =
    let s = S.create ~config:{ S.default_config with S.shards = 2; ip_replicas } () in
    S.at s (Time.of_seconds 0.1) (fun () -> S.kill_ip_replica s (ip_replicas - 1));
    S.run s ~until:(Time.of_seconds 0.5);
    Alcotest.(check int) "IP restarted" 1 (S.ip_replica_restarts s (ip_replicas - 1));
    let up = Mq.link_up (S.nic s) in
    S.run s ~until:(Time.of_seconds 2.0);
    Alcotest.(check bool) "link up once the reset is over" true (Mq.link_up (S.nic s));
    up
  in
  Alcotest.(check bool) "sole IP: the link bounces" false (link_up_after_crash ~ip_replicas:1);
  Alcotest.(check bool) "one of two replicas: no bounce" true
    (link_up_after_crash ~ip_replicas:2)

let test_ip_replica_crash_isolation () =
  (* Four paced flows, one per shard; shards 0/2 are served by replica
     0 and shards 1/3 by replica 1. Killing replica 1 must not cost the
     other replica's flows a single byte. *)
  let config =
    { S.default_config with S.shards = 4; S.ip_replicas = 2; link_gbps = 10.0 }
  in
  let s = S.create ~config () in
  let received = Array.make 4 0 in
  for i = 0 to 3 do
    Sink.sink_tcp (S.sink s) ~port:(5001 + i) ~on_bytes:(fun ~at:_ n ->
        received.(i) <- received.(i) + n)
  done;
  let iperfs =
    Array.init 4 (fun i ->
        Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s)
          ~dst:(S.sink_addr s) ~port:(5001 + i) ~write_size:1460
          ~pace:(Time.of_micros 100.) ~until:(Time.of_seconds 1.0) ())
  in
  let at_kill = Array.make 4 0 in
  S.at s (Time.of_seconds 0.2) (fun () ->
      Array.blit received 0 at_kill 0 4;
      S.kill_ip_replica s 1);
  S.run s ~until:(Time.of_seconds 1.3);
  Alcotest.(check int) "killed replica restarted once" 1 (S.ip_replica_restarts s 1);
  Alcotest.(check int) "other replica untouched" 0 (S.ip_replica_restarts s 0);
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "transport shard %d never crashed" i)
      0 (S.shard_restarts s i)
  done;
  (* The surviving replica's flows (even shards) lost nothing at all. *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "flow on shard %d lost nothing" i)
        (Apps.Iperf.bytes_sent iperfs.(i))
        received.(i))
    [ 0; 2 ];
  (* The dead replica's flows resumed once it reincarnated. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "flow on shard %d resumed" i)
        true
        (received.(i) > at_kill.(i)))
    [ 1; 3 ];
  Alcotest.(check int) "no corruption on the wire" 0
    (Sink.checksum_failures (S.sink s));
  Alcotest.(check int) "affinity held across the crash" 0
    (S.steering_violations s)

(* {2 Sharded packet filter} *)

module Rule = Newt_pf.Rule
module Conntrack = Newt_pf.Conntrack
module Pf_engine = Newt_pf.Pf_engine
module Pf_srv = Newt_stack.Pf_srv
module Replica_set = Newt_scale.Replica_set

(* The PF plane's partition function: the shared flow hash reduced to
   the PF member count (must agree with the stack's own steering). *)
let pf_owner s (f : Conntrack.flow) =
  Shard_map.shard_of (S.shard_map s) ~src:f.Conntrack.local_ip
    ~sport:f.Conntrack.local_port ~dst:f.Conntrack.remote_ip
    ~dport:f.Conntrack.remote_port
  mod S.pf_shard_count s

let pf_conntrack s j = Pf_engine.conntrack (Pf_srv.engine_of (S.pf_shard s j))

let test_planes_cover_every_replica_set () =
  let config =
    {
      S.default_config with
      S.shards = 2;
      ip_replicas = 2;
      pf_shards = 2;
      pf_rules = Some [ Rule.pass_all ];
    }
  in
  let s = S.create ~config () in
  let planes = S.planes s in
  List.iter
    (fun (name, members) ->
      match
        List.find_opt
          (fun (p : Replica_set.plane) -> p.Replica_set.plane_name = name)
          planes
      with
      | Some p ->
          Alcotest.(check int)
            (Printf.sprintf "%s plane size" name)
            members p.Replica_set.members
      | None -> Alcotest.failf "plane %s missing" name)
    [ ("tcp", 2); ("ip", 2); ("pf", 2) ];
  (* The whole-stack imbalance/rebalance accounting is defined (and a
     no-op) before any load exists on any plane. *)
  Alcotest.(check (float 1e-9)) "idle stack is balanced" 1.0
    (S.imbalance_ratio s);
  Alcotest.(check int) "idle stack moves no buckets" 0 (S.rebalance s)

let test_pf_sharding_lifts_plateau () =
  let r1 =
    E.scaling_curve ~shard_counts:[ 8 ] ~ip_replicas:4 ~pf_shards:1 ~flows:8
      ~duration:0.2 ()
  in
  let r2 =
    E.scaling_curve ~shard_counts:[ 8 ] ~ip_replicas:4 ~pf_shards:2 ~flows:8
      ~duration:0.2 ()
  in
  match (r1.E.points, r2.E.points) with
  | [ p1 ], [ p2 ] ->
      Alcotest.(check int) "two pf shards ran" 2 p2.E.pf_shards;
      Alcotest.(check bool)
        (Printf.sprintf
           "sharded PF beats the single-PF plateau (%.2f vs %.2f Gbps)"
           p2.E.goodput_gbps p1.E.goodput_gbps)
        true
        (p2.E.goodput_gbps > p1.E.goodput_gbps *. 1.15);
      Alcotest.(check int) "affinity invariant held (pf=1)" 0 p1.E.violations;
      Alcotest.(check int) "affinity invariant held (pf=2)" 0 p2.E.violations;
      Alcotest.(check int) "one counter block per pf shard" 2
        (Array.length p2.E.per_pf_shard);
      Array.iter
        (fun (st : S.pf_shard_stats) ->
          Alcotest.(check bool) "every pf shard issued verdicts" true
            (st.S.verdicts > 1000);
          Alcotest.(check bool) "every pf shard tracked flows" true
            (st.S.entries > 0))
        p2.E.per_pf_shard
  | _ -> Alcotest.fail "expected one point each"

let test_pf_shard_crash_isolation () =
  (* Four paced flows over 2 transport shards and 2 PF shards (flow →
     PF shard is the same hash, so shards 0/1 each filter two flows).
     Killing PF shard 0 must hold only its own flows' packets — losing
     none — and its recovery must re-track exactly its own conntrack
     slice while the sibling's entries survive untouched. *)
  let config =
    {
      S.default_config with
      S.shards = 2;
      pf_shards = 2;
      pf_rules = Some [ Rule.pass_all ];
      link_gbps = 10.0;
    }
  in
  let s = S.create ~config () in
  let received = Array.make 4 0 in
  for i = 0 to 3 do
    Sink.sink_tcp (S.sink s) ~port:(5001 + i) ~on_bytes:(fun ~at:_ n ->
        received.(i) <- received.(i) + n)
  done;
  let iperfs =
    Array.init 4 (fun i ->
        Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s)
          ~dst:(S.sink_addr s) ~port:(5001 + i) ~write_size:1460
          ~pace:(Time.of_micros 100.) ~until:(Time.of_seconds 1.0) ())
  in
  let sibling_at_kill = ref [] in
  S.at s (Time.of_seconds 0.3) (fun () ->
      sibling_at_kill :=
        List.map (fun (f, _, _) -> f) (Conntrack.export (pf_conntrack s 1));
      S.kill_pf_shard s 0);
  S.run s ~until:(Time.of_seconds 1.3);
  Alcotest.(check int) "killed pf shard restarted once" 1
    (S.pf_shard_restarts s 0);
  Alcotest.(check int) "sibling pf shard untouched" 0 (S.pf_shard_restarts s 1);
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "transport shard %d never crashed" i)
      0 (S.shard_restarts s i)
  done;
  (* A PF crash loses no packets anywhere: IP holds the unanswered
     verdicts and resubmits them, so every flow — including the two
     filtered by the dead shard — delivers every byte, and no
     connection is reset. *)
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "flow %d lost nothing" i)
      (Apps.Iperf.bytes_sent iperfs.(i))
      received.(i);
    Alcotest.(check int)
      (Printf.sprintf "flow %d saw no error" i)
      0
      (Apps.Iperf.errors iperfs.(i))
  done;
  Alcotest.(check int) "no corruption on the wire" 0
    (Sink.checksum_failures (S.sink s));
  Alcotest.(check int) "affinity held across the crash" 0
    (S.steering_violations s);
  (* The sibling's partition survived the crash entry for entry... *)
  Alcotest.(check bool) "sibling tracked flows before the kill" true
    (!sibling_at_kill <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "sibling entry survived" true
        (Conntrack.mem (pf_conntrack s 1) f))
    !sibling_at_kill;
  (* ...and each shard's table holds exactly its own slice of the flow
     space: recovery re-tracked the dead shard's flows (from its
     snapshot and the transports) and nothing foreign. *)
  let check_partition j =
    let entries =
      List.map (fun (f, _, _) -> f) (Conntrack.export (pf_conntrack s j))
    in
    Alcotest.(check bool)
      (Printf.sprintf "pf shard %d re-tracked its flows" j)
      true (entries <> []);
    List.iter
      (fun f ->
        Alcotest.(check int)
          (Printf.sprintf "pf shard %d holds only owned flows" j)
          j (pf_owner s f))
      entries
  in
  check_partition 0;
  check_partition 1

(* {2 Topology: the declared graph is the wired graph} *)

module Topology = Newt_scale.Topology
module Component = Newt_stack.Component
module Sim_chan = Newt_channels.Sim_chan
module Host = Newt_core.Host

(* Every key the components export, with its exporting (consuming)
   component, is exactly the declared matrix — nothing missing, extra
   or duplicated — and every declared producer holds the channel as an
   outbound endpoint. *)
let check_contract label topo comps =
  let specs = Topology.channels topo in
  let exported =
    List.concat_map
      (fun c ->
        List.map (fun (key, ch) -> (key, Component.name c, ch)) (Component.exports c))
      comps
  in
  let pairs l = List.sort compare l in
  Alcotest.(check (list (pair string string)))
    (label ^ ": exports are the channel matrix")
    (pairs (List.map (fun (sp : Topology.spec) -> (sp.key, sp.consumer)) specs))
    (pairs (List.map (fun (key, name, _) -> (key, name)) exported));
  Alcotest.(check int)
    (label ^ ": no key declared twice")
    (List.length specs)
    (List.length
       (List.sort_uniq compare (List.map (fun (sp : Topology.spec) -> sp.key) specs)));
  List.iter
    (fun (sp : Topology.spec) ->
      let _, _, ch = List.find (fun (key, _, _) -> key = sp.key) exported in
      let producer = List.find (fun c -> Component.name c = sp.producer) comps in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s produces %s" label sp.producer sp.key)
        true
        (List.exists
           (fun (c, _, _) -> Sim_chan.id c = Sim_chan.id ch)
           (Component.produced producer)))
    specs

let test_topology_contract_host () =
  let h =
    Host.create
      ~config:{ Host.default_config with Host.nics = 5; pf_shards = 2 }
      ()
  in
  let topo = Host.topology h in
  Alcotest.(check (array string)) "one driver per NIC"
    [| "drv0"; "drv1"; "drv2"; "drv3"; "drv4" |] topo.Topology.drv;
  check_contract "host" topo (Host.components h)

let test_topology_contract_sharded () =
  List.iter
    (fun (label, pf_rules) ->
      let s =
        S.create
          ~config:
            { S.default_config with S.shards = 4; ip_replicas = 2; pf_shards = 2; pf_rules }
          ()
      in
      check_contract label (S.topology s) (S.components s))
    [ ("sharded 4x2x2", Some [ Rule.pass_all ]); ("sharded 4x2, no PF", None) ]

let test_topology_validate () =
  let rejected label r =
    Alcotest.(check bool) (label ^ " is rejected") true (Result.is_error r)
  in
  (* The sizes [scaling --ip-replicas 0], [churn --shards 0] and
     [campaign --pf-shards 0] would build. *)
  rejected "no IP replica" (Topology.validate ~shards:1 ~ip_replicas:0 ~pf_shards:1 ());
  rejected "no TCP shard" (Topology.validate ~shards:0 ~ip_replicas:0 ~pf_shards:0 ());
  rejected "no PF shard" (Topology.validate ~pf_shards:0 ());
  rejected "more IP replicas than shards"
    (Topology.validate ~shards:2 ~ip_replicas:3 ~pf_shards:1 ());
  rejected "more PF shards than shards"
    (Topology.validate ~shards:2 ~pf_shards:3 ());
  Alcotest.(check bool) "host with a sharded filter is fine" true
    (Result.is_ok (Topology.validate ~pf_shards:2 ()));
  Alcotest.(check bool) "8x4x2 is fine" true
    (Result.is_ok (Topology.validate ~shards:8 ~ip_replicas:4 ~pf_shards:2 ()));
  let raises label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  raises "Host.create" (fun () ->
      ignore (Host.create ~config:{ Host.default_config with Host.pf_shards = 0 } ()));
  raises "Sharded_stack.create" (fun () ->
      ignore (S.create ~config:{ S.default_config with S.shards = 0 } ()))

let test_topology_channel_ids_per_world () =
  (* Channel ids are numbered from the channel matrix inside each
     world, so a host built after another in the same process gives
     every channel the id the first one gave it. *)
  let ids () =
    let h = Host.create () in
    List.map
      (fun (sp : Topology.spec) ->
        match Pubsub.lookup (Host.directory h) ~key:sp.key with
        | Some p -> (sp.key, p.Pubsub.chan_id)
        | None -> Alcotest.failf "%s is not published" sp.key)
      (Topology.channels (Host.topology h))
  in
  let first = ids () in
  Alcotest.(check (list (pair string int))) "the second host's ids" first (ids ());
  Alcotest.(check (list int)) "numbered from 1 in matrix order"
    (List.init (List.length first) (fun i -> i + 1))
    (List.map snd first)

let test_pf_shard_restart_keeps_ruleset () =
  (* The one ruleset lives in each PF shard's own storage namespace:
     a killed shard reloads it at restore-state, and its sibling keeps
     it untouched. *)
  let rules =
    [
      {
        Rule.block_all with
        Rule.quick = true;
        proto = Rule.Match_tcp;
        dst_port = Rule.Port 9;
      };
      Rule.pass_all;
    ]
  in
  let s =
    S.create
      ~config:{ S.default_config with S.shards = 2; pf_shards = 2; pf_rules = Some rules }
      ()
  in
  let rules_of j = Pf_engine.rules (Pf_srv.engine_of (S.pf_shard s j)) in
  let lost = ref [] in
  S.at s (Time.of_seconds 0.1) (fun () ->
      S.kill_pf_shard s 0;
      lost := rules_of 0);
  S.run s ~until:(Time.of_seconds 0.6);
  Alcotest.(check int) "the crash emptied the killed shard's rules" 0 (List.length !lost);
  Alcotest.(check int) "killed pf shard restarted once" 1 (S.pf_shard_restarts s 0);
  for j = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "pf shard %d holds the ruleset" j)
      true
      (rules_of j = rules)
  done

let suite =
  [
    ( "shard map is deterministic and symmetric",
      `Quick,
      test_shard_map_deterministic_symmetric );
    ("shard map spreads flows over shards", `Quick, test_shard_map_spreads);
    ("port_for_shard hashes back to the shard", `Quick, test_port_for_shard);
    ( "port_for_shard exhaustion is an explicit error",
      `Quick,
      test_port_for_shard_exhaustion );
    ("imbalance ratio", `Quick, test_imbalance);
    ("rebalance moves buckets toward idle shards", `Quick, test_rebalance_moves_buckets);
    ("goodput scales with shard count", `Slow, test_scaling_curve);
    ("one shard crashes, the rest keep serving", `Slow, test_shard_crash_recovery);
    ("replicated IP lifts the single-IP plateau", `Slow, test_ip_replication_lifts_plateau);
    ("ARP learn-broadcast converges and survives restart", `Quick, test_arp_learn_broadcast);
    ("an IP crash resets the device or only its queues", `Quick, test_ip_crash_reset_scope);
    ("one IP replica crashes, the other's shards keep serving", `Slow, test_ip_replica_crash_isolation);
    ("every replica set reports as a plane", `Quick, test_planes_cover_every_replica_set);
    ("sharded PF lifts the single-PF plateau", `Slow, test_pf_sharding_lifts_plateau);
    ("one PF shard crashes, conntrack partitions survive", `Slow, test_pf_shard_crash_isolation);
    ("topology: host exports are the channel matrix", `Quick, test_topology_contract_host);
    ("topology: sharded exports are the channel matrix", `Quick, test_topology_contract_sharded);
    ("topology: out-of-range plane sizes are rejected", `Quick, test_topology_validate);
    ("topology: each host numbers its channels alike", `Quick,
      test_topology_channel_ids_per_world);
    ("a restarted PF shard keeps the ruleset", `Quick, test_pf_shard_restart_keeps_ruleset);
  ]
