(* Tests for the stack verifier: the static channel-graph checker over
   synthetic (seeded-broken) topologies and all shipped configurations,
   and the pool-ownership sanitizer over both real runs and staged
   violations. *)

module Engine = Newt_sim.Engine
module Machine = Newt_hw.Machine
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Pubsub = Newt_channels.Pubsub
module Hook = Newt_channels.Hook
module Component = Newt_stack.Component
module Proc = Newt_stack.Proc
module Msg = Newt_stack.Msg
module E = Newt_core.Experiments
module Report = Newt_verify.Report
module Static = Newt_verify.Static
module Sanitizer = Newt_verify.Sanitizer
module Protocol = Newt_verify.Protocol
module Mcheck = Newt_verify.Mcheck

(* A little world builder: components on dedicated cores, wired by
   hand into whatever (broken) topology a test needs. *)
let make_world () =
  let e = Engine.create () in
  (e, Machine.create e)

let make_comp m name =
  let core = Machine.add_dedicated_core m in
  Component.create m ~name ~core ()

let handler _ = (10, fun () -> ())

let find_check (r : Report.t) check =
  List.filter (fun (v : Report.violation) -> v.Report.check = check)
    r.Report.violations

(* --- static checker: positive ------------------------------------- *)

let test_all_configs_verify_clean () =
  let reports = E.verify_configs () in
  Alcotest.(check bool) "several configurations" true (List.length reports > 10);
  let title_has sub (r : Report.t) =
    let t = r.Report.title and n = String.length sub in
    let rec go i = i + n <= String.length t && (String.sub t i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pf-sharded configurations covered" true
    (List.exists (title_has " pf=2") reports);
  List.iter
    (fun (r : Report.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s" r.Report.title (Report.to_string r))
        true (Report.ok r);
      Alcotest.(check bool)
        (r.Report.title ^ " examined subjects")
        true
        (List.exists (fun (_, n) -> n > 0) r.Report.checks))
    reports;
  let merged = E.verify_all () in
  Alcotest.(check bool) "merged verdict ok" true (Report.ok merged);
  (* The machine-readable verdict agrees. *)
  let json = Report.to_json merged in
  Alcotest.(check bool) "json says ok" true
    (String.length json > 0
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    contains json "\"ok\": true" || contains json "\"ok\":true")

(* --- static checker: seeded violations ---------------------------- *)

let test_static_spsc_double_producer () =
  let _, m = make_world () in
  let a = make_comp m "a" and b = make_comp m "b" and c = make_comp m "c" in
  let chan = Sim_chan.create ~id:101 () in
  Component.consume c chan handler;
  Component.produce a chan;
  Component.produce b chan;
  let r = Static.check [ a; b; c ] in
  match find_check r "spsc" with
  | [ v ] ->
      Alcotest.(check string) "both producers named" "a, b" v.Report.culprit
  | vs -> Alcotest.failf "expected 1 spsc violation, got %d" (List.length vs)

let test_static_shared_fanout_is_exempt () =
  (* The replicated-IP pattern: one exclusive producer plus any number
     of ~shared fan-out declarations is legal. *)
  let _, m = make_world () in
  let a = make_comp m "ip0" and b = make_comp m "ip1" and c = make_comp m "tcp0" in
  let chan = Sim_chan.create ~id:102 () in
  Component.consume c chan handler;
  Component.produce a chan;
  Component.produce b chan ~shared:true;
  let r = Static.check [ a; b; c ] in
  Alcotest.(check bool) (Report.to_string r) true (Report.ok r)

let test_static_two_consumers () =
  let _, m = make_world () in
  let a = make_comp m "a" and b = make_comp m "b" and c = make_comp m "c" in
  let chan = Sim_chan.create ~id:103 () in
  Component.produce a chan;
  Component.consume b chan handler;
  Component.consume c chan handler;
  let r = Static.check [ a; b; c ] in
  match find_check r "spsc" with
  | [ v ] -> Alcotest.(check string) "both consumers named" "b, c" v.Report.culprit
  | vs -> Alcotest.failf "expected 1 spsc violation, got %d" (List.length vs)

let test_static_core_affinity () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  (* Two different servers time-sharing one core: the cross-core
     pipeline the design wants is gone. *)
  let a = Component.create m ~name:"a" ~core ()
  and b = Component.create m ~name:"b" ~core () in
  let chan = Sim_chan.create ~id:104 () in
  Component.produce a chan;
  Component.consume b chan handler;
  let r = Static.check [ a; b ] in
  match find_check r "core-affinity" with
  | [ v ] -> Alcotest.(check string) "pair named" "a, b" v.Report.culprit
  | vs ->
      Alcotest.failf "expected 1 core-affinity violation, got %d" (List.length vs)

let test_static_blocking_cycle () =
  let _, m = make_world () in
  let a = make_comp m "a" and b = make_comp m "b" in
  let ab = Sim_chan.create ~id:105 () and ba = Sim_chan.create ~id:106 () in
  Component.produce a ab ~policy:`Block;
  Component.consume b ab handler;
  Component.produce b ba ~policy:`Block;
  Component.consume a ba handler;
  let r = Static.check [ a; b ] in
  (match find_check r "blocking-cycle" with
  | [ v ] ->
      Alcotest.(check bool) "culprit on the cycle" true
        (v.Report.culprit = "a" || v.Report.culprit = "b")
  | vs ->
      Alcotest.failf "expected 1 blocking-cycle violation, got %d"
        (List.length vs));
  (* Same wiring with the non-blocking discipline is legal. *)
  let _, m2 = make_world () in
  let a2 = make_comp m2 "a" and b2 = make_comp m2 "b" in
  let ab2 = Sim_chan.create ~id:107 () and ba2 = Sim_chan.create ~id:108 () in
  Component.produce a2 ab2;
  Component.consume b2 ab2 handler;
  Component.produce b2 ba2;
  Component.consume a2 ba2 handler;
  Alcotest.(check bool) "drop policy breaks the cycle" true
    (Report.ok (Static.check [ a2; b2 ]))

let test_static_republish_lost_export () =
  let _, m = make_world () in
  let dir = Pubsub.create () in
  let core_a = Machine.add_dedicated_core m
  and core_b = Machine.add_dedicated_core m in
  let a = Component.create m ~name:"a" ~core:core_a ~directory:dir () in
  let b = Component.create m ~name:"b" ~core:core_b ~directory:dir () in
  let chan = Sim_chan.create ~id:109 () in
  Component.produce a chan;
  Component.consume b chan handler;
  Component.export b ~key:"b.rx" chan;
  Alcotest.(check bool) "published graph verifies" true
    (Report.ok (Static.check ~directory:dir [ a; b ]));
  (* The export vanishes from the directory — as if the consumer died
     and never republished. *)
  Pubsub.unpublish dir ~key:"b.rx";
  let r = Static.check ~directory:dir [ a; b ] in
  match find_check r "republish" with
  | [ v ] -> Alcotest.(check string) "exporter blamed" "b" v.Report.culprit
  | vs -> Alcotest.failf "expected 1 republish violation, got %d" (List.length vs)

let test_static_export_by_non_consumer () =
  let _, m = make_world () in
  let a = make_comp m "a" and b = make_comp m "b" in
  let chan = Sim_chan.create ~id:110 () in
  Component.produce a chan;
  Component.consume b chan handler;
  (* The producer claims the export: after b's restart nobody would
     republish the key. *)
  Component.export a ~key:"stolen" chan;
  let r = Static.check [ a; b ] in
  match find_check r "export-owner" with
  | [ v ] -> Alcotest.(check string) "exporter blamed" "a" v.Report.culprit
  | vs ->
      Alcotest.failf "expected 1 export-owner violation, got %d" (List.length vs)

let test_static_pool_double_owner () =
  let _, m = make_world () in
  let a = make_comp m "a" and b = make_comp m "b" in
  let pool = Pool.create ~id:777 ~slots:4 ~slot_size:64 in
  Component.register_pool a pool;
  Component.register_pool b pool;
  let r = Static.check [ a; b ] in
  match find_check r "pool-owner" with
  | [ v ] -> Alcotest.(check string) "both owners named" "a, b" v.Report.culprit
  | vs -> Alcotest.failf "expected 1 pool-owner violation, got %d" (List.length vs)

let minimal_shard_graph () =
  let _, m = make_world () in
  let tcp = make_comp m "tcp0" and ip = make_comp m "ip0" in
  let req = Sim_chan.create ~id:120 () and del = Sim_chan.create ~id:121 () in
  Component.produce tcp req;
  Component.consume ip req handler;
  Component.produce ip del;
  Component.consume tcp del handler;
  let sharding q =
    {
      Static.shards = 1;
      replicas = 1;
      rss_table = [| q |];
      shard_to_ip = [| Sim_chan.id req |];
      ip_to_shard = [| Sim_chan.id del |];
      replica_names = [| "ip0" |];
      shard_names = [| "tcp0" |];
      pf_shards = 0;
      pf_names = [||];
      ip_to_pf = [||];
      pf_to_ip = [||];
    }
  in
  ([ tcp; ip ], sharding)

let test_static_sharding () =
  let comps, sharding = minimal_shard_graph () in
  Alcotest.(check bool) "healthy spec verifies" true
    (Report.ok (Static.check ~sharding:(sharding 0) comps));
  (* Indirection entry names a queue that does not exist: packets for
     that bucket go nowhere and shard 0 never sees a flow. *)
  let r = Static.check ~sharding:(sharding 5) comps in
  let vs = find_check r "sharding" in
  Alcotest.(check int) "bad entry + unreachable shard" 2 (List.length vs);
  List.iter
    (fun (v : Report.violation) ->
      Alcotest.(check string) "the nic's table is at fault" "nic" v.Report.culprit)
    vs

let test_static_sharding_wrong_replica () =
  let comps, sharding = minimal_shard_graph () in
  let spec = { (sharding 0) with Static.replica_names = [| "ip1" |] } in
  let r = Static.check ~sharding:spec comps in
  let vs = find_check r "sharding" in
  Alcotest.(check bool) "misrouted shard flagged" true (List.length vs > 0)

let minimal_pf_shard_graph () =
  let _, m = make_world () in
  let tcp = make_comp m "tcp0" and ip = make_comp m "ip0" in
  let pf0 = make_comp m "pf0" and pf1 = make_comp m "pf1" in
  let req = Sim_chan.create ~id:130 () and del = Sim_chan.create ~id:131 () in
  Component.produce tcp req;
  Component.consume ip req handler;
  Component.produce ip del;
  Component.consume tcp del handler;
  let next_id = ref 132 in
  let pf_pair pf =
    let fresh () =
      let c = Sim_chan.create ~id:!next_id () in
      incr next_id;
      c
    in
    let to_pf = fresh () and from_pf = fresh () in
    Component.produce ip to_pf;
    Component.consume pf to_pf handler;
    Component.produce pf from_pf;
    Component.consume ip from_pf handler;
    (to_pf, from_pf)
  in
  let a = pf_pair pf0 and b = pf_pair pf1 in
  let spec =
    {
      Static.shards = 1;
      replicas = 1;
      rss_table = [| 0 |];
      shard_to_ip = [| Sim_chan.id req |];
      ip_to_shard = [| Sim_chan.id del |];
      replica_names = [| "ip0" |];
      shard_names = [| "tcp0" |];
      pf_shards = 2;
      pf_names = [| "pf0"; "pf1" |];
      ip_to_pf = [| [| Sim_chan.id (fst a); Sim_chan.id (fst b) |] |];
      pf_to_ip = [| [| Sim_chan.id (snd a); Sim_chan.id (snd b) |] |];
    }
  in
  ([ tcp; ip; pf0; pf1 ], spec)

let test_static_sharding_pf () =
  let comps, spec = minimal_pf_shard_graph () in
  let r = Static.check ~sharding:spec comps in
  Alcotest.(check bool) "healthy pf partition verifies" true (Report.ok r);
  Alcotest.(check bool) "pf subjects examined" true
    (List.exists (fun (c, n) -> c = "sharding-pf" && n = 2) r.Report.checks)

let test_static_sharding_pf_swapped_shards () =
  (* The spec claims shard 0's request channel is consumed by pf1 (and
     vice versa): a flow's packets would meet the wrong conntrack
     partition. The checker must refuse. *)
  let comps, spec = minimal_pf_shard_graph () in
  let bad = { spec with Static.pf_names = [| "pf1"; "pf0" |] } in
  let r = Static.check ~sharding:bad comps in
  let vs = find_check r "sharding" in
  Alcotest.(check bool) "swapped pf partition flagged" true
    (List.length vs >= 2)

let test_static_sharding_pf_missing_fanout () =
  (* An IP replica wired to only one of two PF shards: half the flow
     space has no filter on its path. *)
  let comps, spec = minimal_pf_shard_graph () in
  let bad =
    {
      spec with
      Static.ip_to_pf = [| [| spec.Static.ip_to_pf.(0).(0) |] |];
    }
  in
  let r = Static.check ~sharding:bad comps in
  let vs = find_check r "sharding" in
  Alcotest.(check bool) "incomplete pf fan-out flagged" true
    (List.length vs > 0)

(* --- sanitizer: staged violations --------------------------------- *)

let with_sanitizer f =
  Sanitizer.install ();
  Fun.protect ~finally:Sanitizer.uninstall f

let test_sanitizer_double_free () =
  with_sanitizer @@ fun () ->
  let p = Pool.create ~id:301 ~slots:2 ~slot_size:32 in
  Hook.with_actor "tcp0" (fun () ->
      let ptr = Pool.alloc p ~len:8 in
      Pool.free p ptr;
      try Pool.free p ptr with Pool.Double_free _ -> ());
  match Sanitizer.violations () with
  | [ Sanitizer.Double_free { actor; _ } ] ->
      Alcotest.(check (option string)) "attributed" (Some "tcp0") actor;
      let r = Sanitizer.report ~title:"t" () in
      Alcotest.(check bool) "report not ok" false (Report.ok r);
      let v = List.hd r.Report.violations in
      Alcotest.(check string) "check name" "double-free" v.Report.check;
      Alcotest.(check string) "culprit" "tcp0" v.Report.culprit
  | vs -> Alcotest.failf "expected 1 double-free, got %d" (List.length vs)

let test_sanitizer_non_owner_write () =
  with_sanitizer @@ fun () ->
  let p = Pool.create ~id:302 ~slots:2 ~slot_size:32 in
  Hook.emit (Hook.Pool_own { pool = Pool.id p; owner = "ip0" });
  let src = Bytes.make 8 'x' in
  let ptr = Hook.with_actor "ip0" (fun () -> Pool.alloc p ~len:8) in
  (* The owner writes: fine. *)
  Hook.with_actor "ip0" (fun () -> Pool.write p ptr ~src ~src_off:0);
  Alcotest.(check int) "owner write clean" 0
    (List.length (Sanitizer.violations ()));
  (* Another server scribbles into a pool it was never granted. *)
  Hook.with_actor "pf" (fun () -> Pool.write p ptr ~src ~src_off:0);
  (match Sanitizer.violations () with
  | [ Sanitizer.Non_owner_write { actor; owner; _ } ] ->
      Alcotest.(check string) "intruder" "pf" actor;
      Alcotest.(check string) "owner" "ip0" owner
  | vs -> Alcotest.failf "expected 1 non-owner-write, got %d" (List.length vs));
  (* A DMA grant whitelists the pool: the device path may write. *)
  Sanitizer.reset ();
  Hook.emit (Hook.Pool_own { pool = Pool.id p; owner = "ip0" });
  Hook.emit (Hook.Pool_grant { pool = Pool.id p });
  Hook.with_actor "drv0" (fun () -> Pool.write p ptr ~src ~src_off:0);
  Alcotest.(check int) "granted pool writable" 0
    (List.length (Sanitizer.violations ()))

let test_sanitizer_free_in_flight () =
  with_sanitizer @@ fun () ->
  let _, m = make_world () in
  let core = Machine.add_dedicated_core m in
  let sender = Proc.create m ~name:"ip0" ~core () in
  let chan = Sim_chan.create ~id:303 () in
  let p = Pool.create ~id:304 ~slots:2 ~slot_size:64 in
  let ptr = Hook.with_actor "ip0" (fun () -> Pool.alloc p ~len:16) in
  (* The message sits queued — nobody consumes — and the sender frees
     the buffer anyway: the consumer would read freed memory. *)
  Alcotest.(check bool) "queued" true
    (Proc.send sender chan (Msg.Rx_done { buf = ptr }));
  Hook.with_actor "ip0" (fun () -> Pool.free p ptr);
  (match Sanitizer.violations () with
  | [ Sanitizer.Free_in_flight { actor; in_flight; _ } ] ->
      Alcotest.(check (option string)) "attributed" (Some "ip0") actor;
      Alcotest.(check int) "one message outstanding" 1 in_flight
  | vs -> Alcotest.failf "expected 1 free-in-flight, got %d" (List.length vs));
  (* Dequeue-then-free is the legal order. *)
  Sanitizer.reset ();
  let ptr2 = Hook.with_actor "ip0" (fun () -> Pool.alloc p ~len:16) in
  let receiver = Proc.create m ~name:"tcp0" ~core:(Machine.add_dedicated_core m) () in
  let chan2 = Sim_chan.create ~id:305 () in
  let freed = ref false in
  Proc.add_rx receiver chan2 (fun _ ->
      (10, fun () -> Pool.free p ptr2; freed := true));
  ignore (Proc.send sender chan2 (Msg.Rx_done { buf = ptr2 }));
  Engine.run (Machine.engine m);
  Alcotest.(check bool) "consumer freed it" true !freed;
  Alcotest.(check int) "no violation on the legal order" 0
    (List.length (Sanitizer.violations ()))

let test_sanitizer_leaks () =
  with_sanitizer @@ fun () ->
  let p = Pool.create ~id:306 ~slots:4 ~slot_size:32 in
  Hook.emit (Hook.Pool_own { pool = Pool.id p; owner = "udp0" });
  let ptr = Hook.with_actor "udp0" (fun () -> ignore (Pool.alloc p ~len:8);
      Pool.alloc p ~len:8) in
  Hook.with_actor "udp0" (fun () -> Pool.free p ptr);
  (match Sanitizer.leaks () with
  | [ l ] ->
      Alcotest.(check int) "leak in the right pool" (Pool.id p) l.Sanitizer.pool;
      Alcotest.(check (option string)) "allocator recorded" (Some "udp0")
        l.Sanitizer.allocator
  | ls -> Alcotest.failf "expected 1 leak, got %d" (List.length ls));
  let r = Sanitizer.report ~check_leaks:true ~title:"t" () in
  Alcotest.(check bool) "leak fails the leak-checked report" false (Report.ok r);
  Alcotest.(check bool) "but is not a violation by itself" true
    (Report.ok (Sanitizer.report ~title:"t" ()));
  (* A DMA-granted pool keeps its ring populated by design. *)
  let rx = Pool.create ~id:307 ~slots:2 ~slot_size:32 in
  Hook.emit (Hook.Pool_grant { pool = Pool.id rx });
  ignore (Pool.alloc rx ~len:8);
  Alcotest.(check int) "granted pool exempt" 1 (List.length (Sanitizer.leaks ()))

let test_sanitizer_stale_is_observation () =
  with_sanitizer @@ fun () ->
  let p = Pool.create ~id:308 ~slots:2 ~slot_size:32 in
  let ptr = Pool.alloc p ~len:8 in
  Pool.free p ptr;
  (try ignore (Pool.read p ptr) with Pool.Stale_pointer _ -> ());
  Alcotest.(check int) "recorded" 1 (Sanitizer.stale_count ());
  Alcotest.(check int) "not a violation" 0 (List.length (Sanitizer.violations ()))

let test_sanitizer_crash_reclaim_not_leaked () =
  with_sanitizer @@ fun () ->
  let p = Pool.create ~id:309 ~slots:2 ~slot_size:32 in
  Hook.emit (Hook.Pool_own { pool = Pool.id p; owner = "ip0" });
  ignore (Hook.with_actor "ip0" (fun () -> Pool.alloc p ~len:8));
  (* The owner crashes; reincarnation reclaims wholesale. *)
  Pool.free_all p;
  Alcotest.(check int) "no leaks after crash reclaim" 0
    (List.length (Sanitizer.leaks ()));
  Alcotest.(check int) "no violations either" 0
    (List.length (Sanitizer.violations ()))

let test_sanitizer_cross_incarnation_free () =
  with_sanitizer @@ fun () ->
  let p = Pool.create ~id:310 ~slots:2 ~slot_size:32 in
  Hook.emit (Hook.Pool_own { pool = Pool.id p; owner = "tcp0" });
  let ptr = Hook.with_actor ~epoch:1 "tcp0" (fun () -> Pool.alloc p ~len:8) in
  (* The server's next incarnation frees a slot its previous life
     allocated: pool generations line up, only the epoch betrays that
     the slot survived a teardown that should have reclaimed it. *)
  Hook.with_actor ~epoch:2 "tcp0" (fun () -> Pool.free p ptr);
  (match Sanitizer.violations () with
  | [ Sanitizer.Cross_incarnation_free { actor; alloc_epoch; free_epoch; _ } ] ->
      Alcotest.(check string) "actor" "tcp0" actor;
      Alcotest.(check int) "alloc epoch" 1 alloc_epoch;
      Alcotest.(check int) "free epoch" 2 free_epoch;
      let r = Sanitizer.report ~title:"t" () in
      Alcotest.(check bool) "fails the report" false (Report.ok r);
      let v = List.hd r.Report.violations in
      Alcotest.(check string) "check name" "cross-incarnation-free" v.Report.check
  | vs ->
      Alcotest.failf "expected 1 cross-incarnation free, got %d" (List.length vs));
  (* Same-incarnation alloc/free is the normal case. *)
  Sanitizer.reset ();
  let ptr2 = Hook.with_actor ~epoch:2 "tcp0" (fun () -> Pool.alloc p ~len:8) in
  Hook.with_actor ~epoch:2 "tcp0" (fun () -> Pool.free p ptr2);
  Alcotest.(check int) "same incarnation clean" 0
    (List.length (Sanitizer.violations ()));
  (* DMA-granted pools are exempt: device-held ring slots legitimately
     straddle the driver's incarnations. *)
  let rx = Pool.create ~id:311 ~slots:2 ~slot_size:32 in
  Hook.emit (Hook.Pool_grant { pool = Pool.id rx });
  let ptr3 = Hook.with_actor ~epoch:1 "drv0" (fun () -> Pool.alloc rx ~len:8) in
  Hook.with_actor ~epoch:2 "drv0" (fun () -> Pool.free rx ptr3);
  Alcotest.(check int) "granted pool exempt" 0
    (List.length (Sanitizer.violations ()))

(* --- continuous verification across restarts ---------------------- *)

let test_continuous_stock_campaign_clean () =
  let v = Newt_verify.Continuous.create () in
  ignore (E.fault_campaign ~runs:2 ~seed:2 ~verify:v ());
  let t = Newt_verify.Continuous.totals v in
  Alcotest.(check bool) "re-checked after restarts" true
    (t.Newt_verify.Continuous.re_checks >= 2);
  Alcotest.(check int) "one counter block per run" 2
    (List.length (Newt_verify.Continuous.runs v));
  Alcotest.(check bool)
    (Report.to_string
       (Newt_verify.Continuous.report ~title:"stock campaign" v))
    true
    (Newt_verify.Continuous.ok v)

let test_continuous_catches_broken_recovery () =
  (* Recovery that puts the restarted IP server on the wrong core: the
     traffic still flows, so only the continuous re-check can fail the
     campaign. *)
  let v = Newt_verify.Continuous.create () in
  ignore
    (E.fault_campaign ~runs:3 ~seed:2 ~verify:v
       ~break_recovery:(Newt_core.Host.C_ip, Newt_core.Host.Wrong_core) ());
  Alcotest.(check bool) "wrong-core recovery fails the campaign" false
    (Newt_verify.Continuous.ok v);
  let t = Newt_verify.Continuous.totals v in
  Alcotest.(check bool) "as static violations" true
    (t.Newt_verify.Continuous.static_violations > 0);
  (* Recovery that skips republishing an export: a pure metadata lie —
     the wired channels are fine — caught by the republish check. *)
  let v2 = Newt_verify.Continuous.create () in
  ignore
    (E.fault_campaign ~runs:3 ~seed:2 ~verify:v2
       ~break_recovery:(Newt_core.Host.C_tcp, Newt_core.Host.Skip_republish) ());
  Alcotest.(check bool) "skipped republish fails the campaign" false
    (Newt_verify.Continuous.ok v2)

(* --- protocol checker: staged event streams ----------------------- *)

let with_protocol f =
  Protocol.install ();
  Fun.protect
    ~finally:(fun () ->
      Protocol.uninstall ();
      Protocol.reset ())
    f

let test_protocol_clean_conversation () =
  with_protocol (fun () ->
      let id = 900_001 in
      Hook.emit (Hook.Req_submit { db = 1; id; peer = 2 });
      Hook.emit (Hook.Msg_req { chan = 10; id; way = `Sent });
      Hook.emit (Hook.Msg_req { chan = 10; id; way = `Received });
      Hook.emit (Hook.Msg_conf { chan = 11; id; way = `Sent });
      Hook.emit (Hook.Msg_conf { chan = 11; id; way = `Received });
      Hook.emit (Hook.Req_confirm { db = 1; id; known = true });
      Protocol.finish ~drained:true ();
      let r = Protocol.report () in
      Alcotest.(check bool) (Report.to_string r) true (Report.ok r);
      Alcotest.(check int) "one request" 1 (Protocol.count "requests");
      Alcotest.(check int) "one confirm" 1 (Protocol.count "confirms");
      Alcotest.(check int) "one conversation" 1 (Protocol.conversations ());
      Alcotest.(check int) "six protocol events replayed" 6
        (Protocol.event_count ());
      Alcotest.(check int) "trace remembers them all" 6
        (List.length (Protocol.trace ()));
      Alcotest.(check bool) "overhead accounted" true
        (Protocol.overhead_cycles () > 0))

let test_protocol_confirm_without_request () =
  (* A reply for an id nobody ever submitted: not the benign stale case
     (those require the conversation to have been closed by a crash). *)
  with_protocol (fun () ->
      Hook.emit (Hook.Req_confirm { db = 1; id = 910_001; known = false });
      (match find_check (Protocol.report ()) "confirm-without-request" with
      | [ v ] ->
          Alcotest.(check string) "subject names the id" "request id 910001"
            v.Report.subject
      | vs ->
          Alcotest.failf "expected 1 confirm-without-request, got %d"
            (List.length vs));
      (* A *live-record* confirm the checker never saw submitted is the
         other flavour: the database resolved a record out of thin air. *)
      Hook.emit (Hook.Req_confirm { db = 1; id = 910_002; known = true });
      Alcotest.(check int) "unpaired live confirm flagged" 1
        (List.length (find_check (Protocol.report ()) "confirm-unpaired")))

let test_protocol_dropped_confirm () =
  with_protocol (fun () ->
      let id = 920_001 in
      Hook.emit (Hook.Req_submit { db = 3; id; peer = 9 });
      Hook.emit (Hook.Msg_conf { chan = 12; id; way = `Dropped });
      (match find_check (Protocol.report ()) "dropped-confirm" with
      | [ _ ] -> ()
      | vs ->
          Alcotest.failf "expected 1 dropped-confirm, got %d" (List.length vs));
      (* Once a crash closed the conversation (database reset), a
         discarded confirm is the normal teardown path: counted, not
         flagged. *)
      Hook.emit (Hook.Req_reset { db = 3 });
      Hook.emit (Hook.Msg_conf { chan = 12; id; way = `Dropped });
      Alcotest.(check int) "post-reset drop only counted" 1
        (List.length (find_check (Protocol.report ()) "dropped-confirm"));
      Alcotest.(check int) "conf-drops counter bumped" 1
        (Protocol.count "conf-drops");
      Alcotest.(check int) "owner death recorded" 1
        (Protocol.count "owner-deaths"))

let test_protocol_stale_and_duplicate_confirms () =
  with_protocol (fun () ->
      (* The by-design stale reply: request aborted by the sweep, then
         the old peer's answer trickles in. *)
      let id = 930_001 in
      Hook.emit (Hook.Req_submit { db = 5; id; peer = 2 });
      Hook.emit (Hook.Req_abort { db = 5; id; peer = 2 });
      Hook.emit (Hook.Req_confirm { db = 5; id; known = false });
      Alcotest.(check int) "abort discharged the obligation" 1
        (Protocol.count "aborts");
      Alcotest.(check int) "stale confirm absorbed" 1
        (Protocol.count "stale-confirms");
      let r = Protocol.report () in
      Alcotest.(check bool) (Report.to_string r) true (Report.ok r);
      (* A second confirm for an already-confirmed request is not. *)
      let id2 = 930_002 in
      Hook.emit (Hook.Req_submit { db = 5; id = id2; peer = 2 });
      Hook.emit (Hook.Req_confirm { db = 5; id = id2; known = true });
      Hook.emit (Hook.Req_confirm { db = 5; id = id2; known = false });
      Alcotest.(check int) "duplicate confirm flagged" 1
        (List.length (find_check (Protocol.report ()) "duplicate-confirm")))

let test_protocol_finish_closes_obligations () =
  with_protocol (fun () ->
      let id = 940_001 in
      Hook.emit (Hook.Req_submit { db = 4; id; peer = 1 });
      Hook.emit (Hook.Msg_req { chan = 13; id; way = `Sent });
      (* Mid-run, in-flight work is legitimate; so is an undrained
         finish (a frozen world never quiesces). *)
      Alcotest.(check int) "mid-run silent" 0
        (List.length (Protocol.violations ()));
      Protocol.finish ();
      Alcotest.(check int) "undrained finish silent" 0
        (List.length (Protocol.violations ()));
      (* A drained run may not leave the obligation open, nor the
         hand-off undelivered. *)
      Protocol.finish ~drained:true ();
      Alcotest.(check int) "unresolved request flagged" 1
        (List.length (find_check (Protocol.report ()) "unresolved-request"));
      Alcotest.(check int) "undelivered hand-off flagged" 1
        (List.length (find_check (Protocol.report ()) "undelivered-handoff")))

let test_protocol_retirement_keeps_table_flat () =
  (* A continuously-running checker must not leak: 100k complete
     request/confirm cycles, table size stays bounded by the grace
     window instead of growing to 100k conversations. *)
  with_protocol (fun () ->
      Protocol.set_retire_grace 256;
      Fun.protect ~finally:(fun () -> Protocol.set_retire_grace 4096)
      @@ fun () ->
      let high_water = ref 0 in
      for id = 1 to 100_000 do
        Hook.emit (Hook.Req_submit { db = 1; id; peer = 2 });
        Hook.emit (Hook.Msg_req { chan = 10; id; way = `Sent });
        Hook.emit (Hook.Msg_req { chan = 10; id; way = `Received });
        Hook.emit (Hook.Msg_conf { chan = 11; id; way = `Sent });
        Hook.emit (Hook.Msg_conf { chan = 11; id; way = `Received });
        Hook.emit (Hook.Req_confirm { db = 1; id; known = true });
        high_water := max !high_water (Protocol.conversations ())
      done;
      (* Six events per cycle: a confirmed conversation lives at most
         ~grace/6 further cycles before retirement. *)
      Alcotest.(check bool)
        (Printf.sprintf "table stays flat (high water %d)" !high_water)
        true
        (!high_water <= 256 + 8);
      Alcotest.(check int) "every request opened" 100_000
        (Protocol.count "requests");
      Alcotest.(check int) "every request confirmed" 100_000
        (Protocol.count "confirms");
      Alcotest.(check bool) "almost all conversations retired" true
        (Protocol.count "retired" > 99_000);
      Protocol.finish ~drained:true ();
      let r = Protocol.report () in
      Alcotest.(check bool) (Report.to_string r) true (Report.ok r))

let test_protocol_retirement_spares_open_obligations () =
  (* Only terminal conversations retire: an obligation still open after
     any amount of churn must survive, and its late confirm must pair
     up cleanly instead of being flagged as unpaired. *)
  with_protocol (fun () ->
      Protocol.set_retire_grace 16;
      Fun.protect ~finally:(fun () -> Protocol.set_retire_grace 4096)
      @@ fun () ->
      let slow = 950_000 in
      Hook.emit (Hook.Req_submit { db = 7; id = slow; peer = 2 });
      for id = 950_001 to 950_200 do
        Hook.emit (Hook.Req_submit { db = 7; id; peer = 2 });
        Hook.emit (Hook.Req_confirm { db = 7; id; known = true })
      done;
      Alcotest.(check bool) "churned conversations retired" true
        (Protocol.conversations () < 50);
      Hook.emit (Hook.Req_confirm { db = 7; id = slow; known = true });
      Protocol.finish ~drained:true ();
      let r = Protocol.report () in
      Alcotest.(check bool) (Report.to_string r) true (Report.ok r);
      Alcotest.(check int) "all confirms paired" 201
        (Protocol.count "confirms"))

let test_protocol_rule_listing () =
  let lines = Protocol.describe_rules () in
  Alcotest.(check int) "one line per contract rule"
    (List.length Protocol.contract) (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("rule line rendered: " ^ l) true
        (String.length l > 0))
    lines

(* --- model checker: search driver over synthetic runners ----------- *)

let test_mcheck_search_and_counterexamples () =
  let cases = Mcheck.enumerate [ ("a", [ "s1"; "s2" ]); ("b", [ "s1" ]) ] in
  Alcotest.(check int) "flattened crash points" 3 (List.length cases);
  let run (c : Mcheck.case) =
    let converged = c.Mcheck.component <> "b" in
    {
      Mcheck.case = c;
      converged;
      violations = [];
      trace = (if converged then [] else [ "b: submit id 1 (db 1, to peer 2)" ]);
    }
  in
  let o = Mcheck.search ~cases ~run () in
  Alcotest.(check int) "every case ran" 3 (List.length o.Mcheck.verdicts);
  Alcotest.(check int) "nothing skipped" 0 (List.length o.Mcheck.skipped);
  Alcotest.(check bool) "a counterexample fails the search" false (Mcheck.ok o);
  (match Mcheck.counterexamples o with
  | [ v ] ->
      Alcotest.(check string) "the b crash point" "b"
        v.Mcheck.case.Mcheck.component;
      Alcotest.(check bool) "event trace attached" true (v.Mcheck.trace <> [])
  | ces -> Alcotest.failf "expected 1 counterexample, got %d" (List.length ces));
  (* A bare convergence failure renders as a no-convergence violation
     naming the crash point. *)
  let r = Mcheck.report ~title:"synthetic" o in
  (match find_check r "no-convergence" with
  | [ v ] ->
      Alcotest.(check string) "crash point in the subject"
        "b crashed after step s1" v.Report.subject
  | vs -> Alcotest.failf "expected 1 no-convergence, got %d" (List.length vs));
  let json = Mcheck.to_json ~title:"synthetic" o in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "json verdict is not ok" true
    (contains json "\"ok\":false");
  Alcotest.(check bool) "json carries the trace" true
    (contains json "submit id 1")

let test_mcheck_budget_skips_never_drops () =
  let cases = Mcheck.enumerate [ ("a", [ "s1"; "s2"; "s3" ]) ] in
  let ran = ref 0 in
  let run (c : Mcheck.case) =
    incr ran;
    { Mcheck.case = c; converged = true; violations = []; trace = [] }
  in
  (* An already-exhausted budget: every case must be reported skipped,
     none silently dropped, and skipping alone is not a failure. *)
  let o = Mcheck.search ~budget:(-1.0) ~cases ~run () in
  Alcotest.(check int) "nothing ran" 0 !ran;
  Alcotest.(check int) "every case reported skipped" 3
    (List.length o.Mcheck.skipped);
  Alcotest.(check bool) "skipped cases do not fail the search" true
    (Mcheck.ok o)

let test_mcheck_split_crash_point_space () =
  (* The split stack's search space: every killable component of a
     probe host (the supervisor itself is not a crash point), each with
     the built-in steps bracketing its labeled recovery procedure. *)
  let specs = E.split_crash_points () in
  Alcotest.(check (list string)) "killable components"
    [ "drv0"; "ip"; "pf"; "tcp"; "udp" ]
    (List.sort compare (List.map fst specs));
  List.iter
    (fun (name, steps) ->
      Alcotest.(check bool) (name ^ " revives channels first") true
        (List.mem "revive-channels" steps);
      Alcotest.(check bool) (name ^ " republishes exports") true
        (List.mem "republish-exports" steps))
    specs;
  Alcotest.(check int) "sixteen crash points" 16
    (List.length (Mcheck.enumerate specs))

(* --- sanitizer: a real fault-injected run ------------------------- *)

let test_sanitized_crash_run_clean () =
  let report, trace = E.sanitized_ip_crash ~duration:3.0 ~crash_at:1.5 () in
  Alcotest.(check bool)
    (Printf.sprintf "no violations in a crash-recovery run:\n%s"
       (Report.to_string report))
    true (Report.ok report);
  Alcotest.(check bool) "the crash actually happened" true
    (trace.E.component_restarts >= 1)

(* --- tcp-fsm checker: table lint, conntrack drift, sampling ------- *)

module Tcpfsm = Newt_verify.Tcpfsm
module Conntrack = Newt_pf.Conntrack
module Tcp = Newt_net.Tcp
module Addr = Newt_net.Addr

let test_tcpfsm_lint_clean () =
  let r = Tcpfsm.lint_table () in
  Alcotest.(check bool)
    (Printf.sprintf "shipped tables lint clean:\n%s" (Report.to_string r))
    true (Report.ok r);
  Alcotest.(check bool) "rules and transitions are documented" true
    (Tcpfsm.describe_rules () <> [] && Tcpfsm.describe_transitions () <> [])

let test_tcpfsm_lint_catches_deleted_rules () =
  (* The lint is only worth trusting if it notices sabotage. Deleting
     a Deny backstop or the trailing rx wildcard must break totality;
     deleting an Allow whose cells a later Deny still covers may lint
     clean — so we count, not quantify-over-all. *)
  let broken = ref 0 in
  for i = 0 to Tcpfsm.seg_rule_count - 1 do
    if not (Report.ok (Tcpfsm.lint_dropping i)) then incr broken
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most single-rule deletions break the lint (%d/%d)" !broken
       Tcpfsm.seg_rule_count)
    true
    (!broken >= 6);
  Alcotest.(check bool) "deleting the rx wildcard breaks totality" false
    (Report.ok (Tcpfsm.lint_dropping (Tcpfsm.seg_rule_count - 1)))

let drift_lip = Addr.Ipv4.v 10 9 0 1
let drift_rip = Addr.Ipv4.v 10 9 0 2

let drift_transition ~from_s ~to_s cause =
  Hook.tcp_emit
    (Hook.T_state_change
       {
         lip = Addr.Ipv4.to_int32 drift_lip;
         lport = 80;
         rip = Addr.Ipv4.to_int32 drift_rip;
         rport = 4242;
         from_s = Tcp.state_code from_s;
         to_s = Tcp.state_code to_s;
         cause;
       })

let rx_syn =
  Hook.T_rx { Hook.syn = true; ack = false; fin = false; rst = false; data = false }

let rx_ack =
  Hook.T_rx { Hook.syn = false; ack = true; fin = false; rst = false; data = false }

let test_tcpfsm_conntrack_drift_flagged () =
  Tcpfsm.install ();
  Tcpfsm.reset ();
  Fun.protect ~finally:Tcpfsm.uninstall @@ fun () ->
  (* A half-open PCB: the shadow FSM parks it in SYN_RECEIVED. *)
  drift_transition ~from_s:Tcp.Closed ~to_s:Tcp.Syn_received rx_syn;
  Alcotest.(check bool) "shadow tracks SYN_RECEIVED" true
    (Tcpfsm.state_of
       ~lip:(Addr.Ipv4.to_int32 drift_lip)
       ~lport:80
       ~rip:(Addr.Ipv4.to_int32 drift_rip)
       ~rport:4242
    = Tcp.Syn_received);
  (* The filter claims the handshake completed: drift, flagged. *)
  let flow =
    {
      Conntrack.proto = Conntrack.Ct_tcp;
      local_ip = drift_lip;
      local_port = 80;
      remote_ip = drift_rip;
      remote_port = 4242;
    }
  in
  let ct = Conntrack.create () in
  Conntrack.insert ct ~now:0 ~confirmed:true flow;
  Tcpfsm.crosscheck_conntrack ~where:"drift test" ct;
  Alcotest.(check bool) "confirmed-while-half-open flagged" true
    (List.exists
       (fun (v : Report.violation) ->
         v.Report.check = "conntrack-confirmed-half-open")
       (Tcpfsm.violations ()))

let test_tcpfsm_conntrack_agreement_clean () =
  Tcpfsm.install ();
  Tcpfsm.reset ();
  Fun.protect ~finally:Tcpfsm.uninstall @@ fun () ->
  (* The same flow, handshake completed: confirmation is earned. *)
  drift_transition ~from_s:Tcp.Closed ~to_s:Tcp.Syn_received rx_syn;
  drift_transition ~from_s:Tcp.Syn_received ~to_s:Tcp.Established rx_ack;
  let flow =
    {
      Conntrack.proto = Conntrack.Ct_tcp;
      local_ip = drift_lip;
      local_port = 80;
      remote_ip = drift_rip;
      remote_port = 4242;
    }
  in
  let ct = Conntrack.create () in
  Conntrack.insert ct ~now:0 ~confirmed:true flow;
  (* Plus one the checker never saw: skipped, not guessed at. *)
  Conntrack.insert ct ~now:0 ~confirmed:true
    { flow with Conntrack.remote_port = 5353 };
  Tcpfsm.crosscheck_conntrack ~where:"agreement test" ct;
  Alcotest.(check int) "established + confirmed cross-checks clean" 0
    (List.length (Tcpfsm.violations ()))

let test_tcpfsm_sampling_keeps_whole_connections () =
  (* 1-in-N sampling must drop whole connections, never truncate a
     stream mid-flight — a half-seen handshake would read as an
     illegal transition and poison the verdict. *)
  Tcpfsm.install ();
  Tcpfsm.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tcpfsm.uninstall ();
      Hook.set_sample 1)
  @@ fun () ->
  Hook.set_sample 4;
  let syn_sent_cause = Hook.T_api in
  for rport = 1000 to 1063 do
    Hook.tcp_emit
      (Hook.T_state_change
         {
           lip = Addr.Ipv4.to_int32 drift_lip;
           lport = 30_000 + rport;
           rip = Addr.Ipv4.to_int32 drift_rip;
           rport;
           from_s = Tcp.state_code Tcp.Closed;
           to_s = Tcp.state_code Tcp.Syn_sent;
           cause = syn_sent_cause;
         });
    Hook.tcp_emit
      (Hook.T_state_change
         {
           lip = Addr.Ipv4.to_int32 drift_lip;
           lport = 30_000 + rport;
           rip = Addr.Ipv4.to_int32 drift_rip;
           rport;
           from_s = Tcp.state_code Tcp.Syn_sent;
           to_s = Tcp.state_code Tcp.Established;
           cause =
             Hook.T_rx
               { Hook.syn = true; ack = true; fin = false; rst = false;
                 data = false };
         })
  done;
  let seen, kept = Hook.counts Hook.Tcp in
  Alcotest.(check int) "every emission was counted" 128 seen;
  Alcotest.(check bool)
    (Printf.sprintf "a strict nonempty subset was kept (%d/%d)" kept seen)
    true
    (kept > 0 && kept < seen);
  Alcotest.(check bool) "kept events come in whole connections" true
    (kept mod 2 = 0);
  (* No transition-origin mismatches: dropped connections vanished
     whole, so the checker saw nothing inconsistent. *)
  Alcotest.(check int) "sampling produced no violations" 0
    (List.length (Tcpfsm.violations ()))

let suite =
  [
    ("all shipped configurations verify", `Quick, test_all_configs_verify_clean);
    ("spsc: double producer flagged", `Quick, test_static_spsc_double_producer);
    ("spsc: shared fan-out exempt", `Quick, test_static_shared_fanout_is_exempt);
    ("spsc: two consumers flagged", `Quick, test_static_two_consumers);
    ("core-affinity: shared core flagged", `Quick, test_static_core_affinity);
    ("blocking cycle flagged, drop policy legal", `Quick, test_static_blocking_cycle);
    ("republish: lost export flagged", `Quick, test_static_republish_lost_export);
    ("export-owner: non-consumer export flagged", `Quick,
      test_static_export_by_non_consumer);
    ("pool-owner: double registration flagged", `Quick,
      test_static_pool_double_owner);
    ("sharding: broken rss table flagged", `Quick, test_static_sharding);
    ("sharding: wrong replica flagged", `Quick, test_static_sharding_wrong_replica);
    ("sharding-pf: healthy partition verifies", `Quick, test_static_sharding_pf);
    ( "sharding-pf: swapped pf shards flagged",
      `Quick,
      test_static_sharding_pf_swapped_shards );
    ( "sharding-pf: incomplete fan-out flagged",
      `Quick,
      test_static_sharding_pf_missing_fanout );
    ("sanitizer: double free attributed", `Quick, test_sanitizer_double_free);
    ("sanitizer: non-owner write and dma grant", `Quick,
      test_sanitizer_non_owner_write);
    ("sanitizer: free while in flight", `Quick, test_sanitizer_free_in_flight);
    ("sanitizer: leak detection", `Quick, test_sanitizer_leaks);
    ("sanitizer: stale deref is an observation", `Quick,
      test_sanitizer_stale_is_observation);
    ("sanitizer: crash reclaim is not a leak", `Quick,
      test_sanitizer_crash_reclaim_not_leaked);
    ("sanitizer: cross-incarnation free flagged", `Quick,
      test_sanitizer_cross_incarnation_free);
    ("continuous: stock campaign re-checks clean", `Quick,
      test_continuous_stock_campaign_clean);
    ("continuous: broken recovery fails the campaign", `Quick,
      test_continuous_catches_broken_recovery);
    ("sanitizer: fault-injected run is clean", `Quick,
      test_sanitized_crash_run_clean);
    ("protocol: clean conversation", `Quick, test_protocol_clean_conversation);
    ("protocol: confirm without request flagged", `Quick,
      test_protocol_confirm_without_request);
    ("protocol: dropped confirm strands the requester", `Quick,
      test_protocol_dropped_confirm);
    ("protocol: stale absorbed, duplicate flagged", `Quick,
      test_protocol_stale_and_duplicate_confirms);
    ("protocol: drained finish closes obligations", `Quick,
      test_protocol_finish_closes_obligations);
    ("protocol: rule listing matches the contract", `Quick,
      test_protocol_rule_listing);
    ("protocol: retirement keeps the table flat over 100k cycles", `Quick,
      test_protocol_retirement_keeps_table_flat);
    ("protocol: retirement spares open obligations", `Quick,
      test_protocol_retirement_spares_open_obligations);
    ("mcheck: search, counterexamples, report", `Quick,
      test_mcheck_search_and_counterexamples);
    ("mcheck: budget skips, never drops", `Quick,
      test_mcheck_budget_skips_never_drops);
    ("mcheck: split-stack crash-point space", `Quick,
      test_mcheck_split_crash_point_space);
    ("tcp-fsm: tables lint clean", `Quick, test_tcpfsm_lint_clean);
    ("tcp-fsm: lint catches deleted rules", `Quick,
      test_tcpfsm_lint_catches_deleted_rules);
    ("tcp-fsm: conntrack confirmed-while-half-open flagged", `Quick,
      test_tcpfsm_conntrack_drift_flagged);
    ("tcp-fsm: conntrack agreement cross-checks clean", `Quick,
      test_tcpfsm_conntrack_agreement_clean);
    ("tcp-fsm: sampling keeps whole connections", `Quick,
      test_tcpfsm_sampling_keeps_whole_connections);
  ]
