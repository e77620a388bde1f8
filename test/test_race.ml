(* Tests for Verify.Race: the static domain-ownership lint over the
   native pinning plan, the dynamic vector-clock happens-before
   checker over the Channels.Hook native event family, and the Loop
   post-vs-park stress that backs the lost-wakeup audit. *)

module Hook = Newt_channels.Hook
module Spsc = Newt_channels.Spsc_queue
module Pool = Newt_channels.Pool
module Race = Newt_verify.Race
module Report = Newt_verify.Report
module Time = Newt_sim.Time
module Loop = Newt_runtime.Loop
module Native = Newt_runtime.Native

let has_check (r : Report.t) name =
  List.exists (fun (v : Report.violation) -> v.Report.check = name)
    r.Report.violations

(* {2 Static layer: the ownership lint over the native plan} *)

let test_plan_clean () =
  (* The real wiring must lint clean at every placement the CLI
     defaults to — the round-robin changes who shares a domain. *)
  List.iter
    (fun d ->
      let r =
        Race.check_plan
          ~title:(Printf.sprintf "%d domains" d)
          (Native.ownership_plan ~domains:d ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "plan clean at %d domains" d)
        true (Report.ok r);
      (* The lint actually looked at things. *)
      Alcotest.(check bool) "rings examined" true
        (List.assoc "ring-spsc" r.Report.checks > 0))
    [ 2; 4; 8 ]

let test_plan_flags_two_producers () =
  let r =
    Race.check_plan
      (Native.ownership_plan ~break_race:Native.Spsc_two_producers ~domains:2
         ())
  in
  Alcotest.(check bool) "sabotaged plan rejected" false (Report.ok r);
  Alcotest.(check bool) "ring-spsc fired" true (has_check r "ring-spsc");
  Alcotest.(check int) "exit code 1" 1 (Report.exit_code r)

let test_plan_flags_unfenced_counter () =
  let r =
    Race.check_plan
      (Native.ownership_plan ~break_race:Native.Loop_unfenced_counter
         ~domains:2 ())
  in
  Alcotest.(check bool) "sabotaged plan rejected" false (Report.ok r);
  Alcotest.(check bool) "cross-domain fired" true (has_check r "cross-domain")

(* {2 Dynamic layer} *)

let races_with (o : Race.Dynamic.outcome) name =
  List.filter (fun (r : Race.Dynamic.race_view) -> r.Race.Dynamic.check = name)
    o.Race.Dynamic.races

let test_dynamic_clean_spsc () =
  (* Positive control: a properly owned SPSC ring moving a million
     messages between two domains is clock-ordered end to end — the
     detector must stay silent. Payload integrity is checked too, so a
     real reordering would fail the sum even if the detector missed
     it. *)
  Race.Dynamic.arm ();
  let q = Spsc.create ~id:3 ~capacity:1024 () in
  Race.Dynamic.fence ();
  let n = 1_000_000 in
  let prod =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (Spsc.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and sum = ref 0 in
  while !got < n do
    match Spsc.try_pop q with
    | Some v ->
        incr got;
        sum := !sum + v
    | None -> Domain.cpu_relax ()
  done;
  Domain.join prod;
  let o = Race.Dynamic.disarm () in
  Alcotest.(check int) "all messages arrived" n !got;
  Alcotest.(check bool) "payload intact" true (!sum = n * (n + 1) / 2);
  Alcotest.(check bool) "no races on a clean ring" true (Race.Dynamic.ok o);
  Alcotest.(check int) "zero reports" 0 (List.length o.Race.Dynamic.races);
  Alcotest.(check bool) "events were processed" true
    (o.Race.Dynamic.events > n)

let test_dynamic_two_producers () =
  (* Negative control: two domains pushing the same ring. The dynamic
     ownership discipline must flag the second producer even when the
     interleaving happens to be benign. *)
  Race.Dynamic.arm ();
  let q = Spsc.create ~id:4 ~capacity:4096 () in
  Race.Dynamic.fence ();
  let pusher () =
    Domain.spawn (fun () ->
        for i = 1 to 1000 do
          ignore (Spsc.try_push q i : bool)
        done)
  in
  let d1 = pusher () in
  let d2 = pusher () in
  Domain.join d1;
  Domain.join d2;
  while Spsc.try_pop q <> None do () done;
  let o = Race.Dynamic.disarm () in
  Alcotest.(check bool) "detector rejected the run" false (Race.Dynamic.ok o);
  Alcotest.(check bool) "ring-producer violation reported" true
    (races_with o "ring-producer" <> []);
  let r = List.hd (races_with o "ring-producer") in
  Alcotest.(check bool) "both access stacks captured" true
    (r.Race.Dynamic.first.Race.Dynamic.stack <> []
    && r.Race.Dynamic.second.Race.Dynamic.stack <> []);
  Alcotest.(check bool) "replayable trace attached" true
    (r.Race.Dynamic.trace <> [])

let test_dynamic_unfenced_counter () =
  (* Two domains writing one location with no release/acquire edge
     between them: the FastTrack core must report it even though
     neither domain ever released a sync object. *)
  Race.Dynamic.arm ();
  Race.Dynamic.fence ();
  let writer () =
    Domain.spawn (fun () ->
        Hook.native_access Hook.N_counter ~id:5 ~sub:0 ~write:true)
  in
  let d1 = writer () in
  Domain.join d1;
  let d2 = writer () in
  Domain.join d2;
  let o = Race.Dynamic.disarm () in
  Alcotest.(check bool) "unordered writes rejected" false (Race.Dynamic.ok o);
  Alcotest.(check bool) "hb-race reported" true
    (races_with o "hb-race" <> [])

let test_dynamic_lock_orders_accesses () =
  (* The same two unordered writes become clean when both ride a lock:
     release on unlock, acquire on lock. *)
  Race.Dynamic.arm ();
  Race.Dynamic.fence ();
  let locked_write () =
    Hook.native_emit (Hook.N_lock { lock = 7; acquire = true });
    Hook.native_access Hook.N_pool_slot ~id:7 ~sub:1 ~write:true;
    Hook.native_emit (Hook.N_lock { lock = 7; acquire = false })
  in
  let d1 = Domain.spawn locked_write in
  Domain.join d1;
  let d2 = Domain.spawn locked_write in
  Domain.join d2;
  let o = Race.Dynamic.disarm () in
  Alcotest.(check bool) "lock-ordered writes accepted" true
    (Race.Dynamic.ok o)

let test_dynamic_pool_first_use_published () =
  (* A threadsafe pool's slots get their storage on first [alloc], on
     the allocating domain. The pointer then crosses to the other
     domain through a ring, which reads the chunk and frees it back —
     the driver-fills, IP-frees pattern of the native runtime. The
     storage is created under the pool lock before the pointer is
     published, so the detector must stay silent and every byte must
     arrive. *)
  Race.Dynamic.arm ();
  Pool.set_default_threadsafe true;
  let pool =
    Fun.protect
      ~finally:(fun () -> Pool.set_default_threadsafe false)
      (fun () -> Pool.create ~id:(Pool.fresh_id ()) ~slots:32 ~slot_size:64)
  in
  let q = Spsc.create ~id:11 ~capacity:16 () in
  Race.Dynamic.fence ();
  let n = 2000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          let rec alloc () =
            match Pool.alloc pool ~len:8 with
            | ptr -> ptr
            | exception Pool.Pool_exhausted ->
                Domain.cpu_relax ();
                alloc ()
          in
          let ptr = alloc () in
          Pool.write pool ptr ~src:(Bytes.make 8 (Char.chr (i land 0xff))) ~src_off:0;
          while not (Spsc.try_push q (i, ptr)) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and intact = ref true in
  while !got < n do
    match Spsc.try_pop q with
    | Some (i, ptr) ->
        incr got;
        if Pool.read pool ptr <> Bytes.make 8 (Char.chr (i land 0xff)) then
          intact := false;
        Pool.free pool ptr
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  let o = Race.Dynamic.disarm () in
  Alcotest.(check bool) "every chunk arrived intact" true !intact;
  Alcotest.(check bool) "storage materialised on use" true
    (Pool.resident_slots pool > 0 && Pool.resident_slots pool <= 32);
  Alcotest.(check int) "zero races" 0 (List.length o.Race.Dynamic.races)

(* {2 Loop: the post-vs-park lost-wakeup stress} *)

let test_loop_post_vs_park_stress () =
  (* A million cross-domain posts against a loop that parks whenever
     its spin budget runs dry. If the doorbell could lose a wakeup
     (the window audited at the park site in loop.ml), the loop would
     sleep on a non-empty inbox and this test would stall short of the
     count; the tiny spin budget maximises park/post interleavings. *)
  let t0 = Unix.gettimeofday () in
  let now () =
    int_of_float
      ((Unix.gettimeofday () -. t0) *. float_of_int Time.cycles_per_second)
  in
  let loop = Loop.create ~index:0 ~now ~spin_budget:32 () in
  let executed = Atomic.make 0 in
  let n = 1_000_000 in
  let runner = Domain.spawn (fun () -> Loop.run loop) in
  let poster =
    Domain.spawn
      (fun () ->
        for _ = 1 to n do
          Loop.post loop (fun () -> Atomic.incr executed)
        done)
  in
  Domain.join poster;
  (* Every post is already in the inbox; the loop must drain them all
     without further prodding. *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Atomic.get executed < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Loop.request_stop loop;
  Domain.join runner;
  Alcotest.(check bool) "loop survived" true (Loop.failure loop = None);
  Alcotest.(check int) "every post executed (no lost wakeup)" n
    (Atomic.get executed);
  let s = Loop.stats loop in
  Alcotest.(check bool) "posts counted as remote" true
    (s.Loop.posts_remote >= n)

let suite =
  [
    ("plan: native wiring lints clean at 2/4/8 domains", `Quick,
      test_plan_clean);
    ("plan: two-producer sabotage flagged", `Quick,
      test_plan_flags_two_producers);
    ("plan: unfenced counter flagged", `Quick,
      test_plan_flags_unfenced_counter);
    ("dynamic: clean SPSC ring, 1M messages, zero races", `Slow,
      test_dynamic_clean_spsc);
    ("dynamic: two producers on one ring rejected", `Quick,
      test_dynamic_two_producers);
    ("dynamic: unfenced counter writes rejected", `Quick,
      test_dynamic_unfenced_counter);
    ("dynamic: lock-ordered writes accepted", `Quick,
      test_dynamic_lock_orders_accesses);
    ("dynamic: pool slot materialised on one domain, read on the other",
      `Quick, test_dynamic_pool_first_use_published);
    ("loop: 1M post-vs-park stress, no lost wakeup", `Slow,
      test_loop_post_vs_park_stress);
  ]
