(* Tests for the native runtime: the no-silent-fallback argument
   guard, the per-domain event loop, and a bounded end-to-end run on
   real domains. *)

module Time = Newt_sim.Time
module Loop = Newt_runtime.Loop
module Native = Newt_runtime.Native
module Race = Newt_verify.Race

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let err ~recommended ?allow ~domains () =
  match
    Native.validate ~recommended ?allow_oversubscribe:allow ~domains ()
  with
  | Ok () -> None
  | Error e -> Some e

let test_validate_guards () =
  (* Fewer than two domains is never runnable — a channel needs a
     producer domain and a consumer domain. *)
  Alcotest.(check bool) "1 domain rejected" true
    (err ~recommended:8 ~domains:1 () <> None);
  Alcotest.(check bool) "1 domain rejected even when forced" true
    (err ~recommended:8 ~allow:true ~domains:1 () <> None);
  (* Exceeding the machine measures scheduler noise: refuse unless
     explicitly forced. *)
  Alcotest.(check bool) "over recommended rejected" true
    (err ~recommended:2 ~domains:4 () <> None);
  Alcotest.(check bool) "over recommended runs when forced" true
    (err ~recommended:2 ~allow:true ~domains:4 () = None);
  (* A 1-core machine refuses rather than silently simulating. *)
  Alcotest.(check bool) "recommended=1 rejected" true
    (err ~recommended:1 ~domains:2 () <> None);
  Alcotest.(check bool) "recommended=1 runs when forced" true
    (err ~recommended:1 ~allow:true ~domains:2 () = None);
  (* Sane configurations pass. *)
  Alcotest.(check bool) "2 of 8 accepted" true
    (err ~recommended:8 ~domains:2 () = None);
  Alcotest.(check bool) "8 of 8 accepted" true
    (err ~recommended:8 ~domains:8 () = None);
  (* Absurd counts are a mistake even when forced. *)
  Alcotest.(check bool) "32 domains rejected" true
    (err ~recommended:64 ~allow:true ~domains:32 () <> None)

let test_validate_error_names_the_remedy () =
  (* The guard must tell the operator how to proceed, and must make
     clear it will not fall back to simulation. *)
  match err ~recommended:1 ~domains:2 () with
  | None -> Alcotest.fail "expected a rejection on a 1-core machine"
  | Some msg ->
      Alcotest.(check bool) "names --allow-oversubscribe" true
        (contains msg "allow-oversubscribe");
      Alcotest.(check bool) "mentions it refuses to simulate" true
        (contains msg "simulat")

let test_loop_post_schedule_cancel_stop () =
  let t0 = Unix.gettimeofday () in
  let now () =
    int_of_float
      ((Unix.gettimeofday () -. t0) *. float_of_int Time.cycles_per_second)
  in
  let loop = Loop.create ~index:0 ~now () in
  let order = ref [] in
  Loop.post loop (fun () -> order := "posted" :: !order);
  let (_keep : unit -> unit) =
    Loop.schedule loop (Time.of_micros 200.) (fun () ->
        order := "timer" :: !order)
  in
  let cancel =
    Loop.schedule loop (Time.of_micros 500.) (fun () ->
        order := "cancelled" :: !order)
  in
  cancel ();
  let d = Domain.spawn (fun () -> Loop.run loop) in
  Loop.post loop (fun () -> order := "cross" :: !order);
  Unix.sleepf 0.05;
  Loop.request_stop loop;
  Domain.join d;
  Alcotest.(check bool) "no failure" true (Loop.failure loop = None);
  let ran = List.rev !order in
  Alcotest.(check bool) "pre-run post ran" true (List.mem "posted" ran);
  Alcotest.(check bool) "cross-domain post ran" true (List.mem "cross" ran);
  Alcotest.(check bool) "timer fired" true (List.mem "timer" ran);
  Alcotest.(check bool) "cancelled timer did not fire" true
    (not (List.mem "cancelled" ran));
  let s = Loop.stats loop in
  Alcotest.(check int) "one timer fire counted" 1 s.Loop.timer_fires

let test_loop_failure_captured () =
  let loop = Loop.create ~index:1 ~now:(fun () -> 0) () in
  Loop.post loop (fun () -> failwith "boom");
  let d = Domain.spawn (fun () -> Loop.run loop) in
  Domain.join d;
  match Loop.failure loop with
  | Some (Failure m) -> Alcotest.(check string) "exception kept" "boom" m
  | _ -> Alcotest.fail "loop failure not captured"

let test_native_bounded_run () =
  (* A short real run on 2 domains (time-sliced if the machine has one
     core — the stack's correctness must not depend on parallelism).
     Every byte the peer receives went through TCP → IP → PF → IP →
     driver → wire with real checksums on the far end. *)
  let r =
    Native.run { Native.default_config with domains = 2; seconds = 0.4 }
  in
  Alcotest.(check int) "peer saw no checksum failures" 0
    r.Native.checksum_failures;
  Alcotest.(check bool) "bulk TCP payload moved" true (r.Native.tcp_bytes > 0);
  Alcotest.(check bool) "split-stack ping path answered" true
    (r.Native.icmp_echoes > 0);
  Alcotest.(check int) "both domains reported" 2
    (List.length r.Native.loops);
  List.iter
    (fun (s : Native.ring_stat) ->
      Alcotest.(check int)
        (Printf.sprintf "ring %s dropped nothing" s.Native.ring)
        0 s.Native.dropped)
    r.Native.rings;
  (* The wiring matches the ownership plan the race lint proves: each
     loop runs exactly the components the plan places on its domain,
     and the run creates exactly the plan's rings. *)
  let plan = Native.ownership_plan ~domains:2 () in
  List.iter
    (fun (s : Loop.stats) ->
      let planned =
        List.filter_map
          (fun (name, d) -> if d = s.Loop.index then Some name else None)
          plan.Race.Plan.placement
      in
      Alcotest.(check (list string))
        (Printf.sprintf "loop %d pinned as planned" s.Loop.index)
        (List.sort compare planned)
        (List.sort compare s.Loop.pinned))
    r.Native.loops;
  let planned_rings =
    List.filter_map
      (fun (res : Race.Plan.resource) ->
        if res.Race.Plan.kind = Race.Plan.Ring_buf then Some res.Race.Plan.res
        else None)
      plan.Race.Plan.resources
  in
  Alcotest.(check (list string)) "rings are the plan's rings"
    (List.sort compare planned_rings)
    (List.sort compare
       (List.map (fun (s : Native.ring_stat) -> "ring " ^ s.Native.ring)
          r.Native.rings));
  (* The JSON emitter covers every ring and loop. *)
  let json = Native.json_of_result r in
  Alcotest.(check bool) "json mentions goodput" true
    (contains json "goodput_mbps")

let suite =
  [
    ("native validate: fallback guard", `Quick, test_validate_guards);
    ("native validate: error names the remedy", `Quick,
      test_validate_error_names_the_remedy);
    ("loop: post/schedule/cancel/stop", `Quick,
      test_loop_post_schedule_cancel_stop);
    ("loop: failure captured, not swallowed", `Quick,
      test_loop_failure_captured);
    ("native: bounded 2-domain run", `Slow, test_native_bounded_run);
  ]
