(* Continuous verification: aggregate re-checks of the static channel
   graph (one per reincarnation) with the sanitizer's dynamic verdict,
   per experiment run and across a whole campaign. *)

type counters = {
  re_checks : int;
  static_violations : int;
  sanitizer_violations : int;
  leaks : int;
  stale_derefs : int;
  allocs : int;
  frees : int;
  handoffs : int;
  hook_events : int;
  hook_overhead_cycles : int;
  protocol_violations : int;
  protocol_requests : int;
  protocol_confirms : int;
  protocol_aborts : int;
  protocol_stale_confirms : int;
  protocol_events : int;
  tcpfsm_violations : int;
  tcpfsm_segments : int;
  tcpfsm_transitions : int;
  tcpfsm_overhead_cycles : int;
}

let zero =
  {
    re_checks = 0;
    static_violations = 0;
    sanitizer_violations = 0;
    leaks = 0;
    stale_derefs = 0;
    allocs = 0;
    frees = 0;
    handoffs = 0;
    hook_events = 0;
    hook_overhead_cycles = 0;
    protocol_violations = 0;
    protocol_requests = 0;
    protocol_confirms = 0;
    protocol_aborts = 0;
    protocol_stale_confirms = 0;
    protocol_events = 0;
    tcpfsm_violations = 0;
    tcpfsm_segments = 0;
    tcpfsm_transitions = 0;
    tcpfsm_overhead_cycles = 0;
  }

let add a b =
  {
    re_checks = a.re_checks + b.re_checks;
    static_violations = a.static_violations + b.static_violations;
    sanitizer_violations = a.sanitizer_violations + b.sanitizer_violations;
    leaks = a.leaks + b.leaks;
    stale_derefs = a.stale_derefs + b.stale_derefs;
    allocs = a.allocs + b.allocs;
    frees = a.frees + b.frees;
    handoffs = a.handoffs + b.handoffs;
    hook_events = a.hook_events + b.hook_events;
    hook_overhead_cycles = a.hook_overhead_cycles + b.hook_overhead_cycles;
    protocol_violations = a.protocol_violations + b.protocol_violations;
    protocol_requests = a.protocol_requests + b.protocol_requests;
    protocol_confirms = a.protocol_confirms + b.protocol_confirms;
    protocol_aborts = a.protocol_aborts + b.protocol_aborts;
    protocol_stale_confirms = a.protocol_stale_confirms + b.protocol_stale_confirms;
    protocol_events = a.protocol_events + b.protocol_events;
    tcpfsm_violations = a.tcpfsm_violations + b.tcpfsm_violations;
    tcpfsm_segments = a.tcpfsm_segments + b.tcpfsm_segments;
    tcpfsm_transitions = a.tcpfsm_transitions + b.tcpfsm_transitions;
    tcpfsm_overhead_cycles = a.tcpfsm_overhead_cycles + b.tcpfsm_overhead_cycles;
  }

type t = {
  mutable runs : counters list;  (* completed runs, oldest first *)
  mutable viols : Report.violation list;  (* everything collected, in order *)
  (* accumulators for the run in progress *)
  mutable cur_re_checks : int;
  mutable cur_static_violations : int;
}

let create () =
  { runs = []; viols = []; cur_re_checks = 0; cur_static_violations = 0 }

let recheck t mk =
  let r = mk () in
  t.cur_re_checks <- t.cur_re_checks + 1;
  if not (Report.ok r) then begin
    t.cur_static_violations <-
      t.cur_static_violations + List.length r.Report.violations;
    t.viols <- t.viols @ r.Report.violations
  end

let end_run ?(check_leaks = false) t =
  let c =
    if Sanitizer.active () then begin
      let vs = Sanitizer.violations () in
      let leaks = if check_leaks then Sanitizer.leaks () else [] in
      t.viols <-
        t.viols
        @ List.map Sanitizer.describe vs
        @ List.map Sanitizer.describe_leak leaks;
      {
        zero with
        re_checks = t.cur_re_checks;
        static_violations = t.cur_static_violations;
        sanitizer_violations = List.length vs;
        leaks = List.length leaks;
        stale_derefs = Sanitizer.stale_count ();
        allocs = Sanitizer.alloc_count ();
        frees = Sanitizer.free_count ();
        handoffs = Sanitizer.handoff_count ();
        hook_events = Sanitizer.event_count ();
        hook_overhead_cycles = Sanitizer.overhead_cycles ();
      }
    end
    else
      {
        zero with
        re_checks = t.cur_re_checks;
        static_violations = t.cur_static_violations;
      }
  in
  let c =
    if Protocol.active () then begin
      (* A leak-checked run is a drained run: the same quiescence that
         makes outstanding slots leaks makes open request obligations
         violations. *)
      Protocol.finish ~drained:check_leaks ();
      let pvs = Protocol.violations () in
      t.viols <- t.viols @ pvs;
      {
        c with
        protocol_violations = List.length pvs;
        protocol_requests = Protocol.count "requests";
        protocol_confirms = Protocol.count "confirms";
        protocol_aborts = Protocol.count "aborts";
        protocol_stale_confirms = Protocol.count "stale-confirms";
        protocol_events = Protocol.event_count ();
      }
    end
    else c
  in
  let c =
    if Tcpfsm.active () then begin
      let fvs = Tcpfsm.violations () in
      t.viols <- t.viols @ fvs;
      {
        c with
        tcpfsm_violations = List.length fvs;
        tcpfsm_segments = Tcpfsm.segment_count ();
        tcpfsm_transitions = Tcpfsm.transition_count ();
        tcpfsm_overhead_cycles = Tcpfsm.overhead_cycles ();
      }
    end
    else c
  in
  t.runs <- t.runs @ [ c ];
  t.cur_re_checks <- 0;
  t.cur_static_violations <- 0;
  (* The next run starts with fresh shadow state; the listeners stay
     installed so they capture the new world's pool announcements. *)
  if Sanitizer.active () then Sanitizer.reset ();
  if Protocol.active () then Protocol.reset ();
  if Tcpfsm.active () then Tcpfsm.reset ()

let runs t = t.runs

let totals t =
  List.fold_left add
    {
      zero with
      re_checks = t.cur_re_checks;
      static_violations = t.cur_static_violations;
    }
    t.runs

let ok t = t.viols = []

let report ~title t =
  let c = totals t in
  {
    Report.title;
    checks =
      [
        ("re-checks", c.re_checks);
        ("runs", List.length t.runs);
        ("allocations", c.allocs);
        ("frees", c.frees);
        ("hand-offs", c.handoffs);
        ("stale-derefs", c.stale_derefs);
        ("hook-events", c.hook_events);
      ];
    violations = t.viols;
  }

let counters_json c =
  Newt_sim.Json.ints
    [ ("re_checks", c.re_checks); ("static_violations", c.static_violations);
      ("sanitizer_violations", c.sanitizer_violations); ("leaks", c.leaks);
      ("stale_derefs", c.stale_derefs); ("allocs", c.allocs); ("frees", c.frees);
      ("handoffs", c.handoffs); ("hook_events", c.hook_events);
      ("hook_overhead_cycles", c.hook_overhead_cycles);
      ("protocol_violations", c.protocol_violations);
      ("protocol_requests", c.protocol_requests);
      ("protocol_confirms", c.protocol_confirms);
      ("protocol_aborts", c.protocol_aborts);
      ("protocol_stale_confirms", c.protocol_stale_confirms);
      ("protocol_events", c.protocol_events);
      ("tcpfsm_violations", c.tcpfsm_violations);
      ("tcpfsm_segments", c.tcpfsm_segments);
      ("tcpfsm_transitions", c.tcpfsm_transitions);
      ("tcpfsm_overhead_cycles", c.tcpfsm_overhead_cycles) ]

let json t =
  [ ("counters", counters_json (totals t));
    ("run_counters", Newt_sim.Json.List (List.map counters_json t.runs)) ]
