module Hook = Newt_channels.Hook

(* ------------------------------------------------------------------ *)
(* Static layer: the domain-ownership lint over a pinning plan.       *)
(* ------------------------------------------------------------------ *)

module Plan = struct
  type prim = Ring | Atomic | Park_mutex | Pool_lock
  type kind = Ring_buf | Pool | Inbox | Counter | Timer_wheel | Table

  type resource = {
    res : string;
    kind : kind;
    owner : string option;
    writers : string list;
    readers : string list;
    grants : string list;
    via : prim option;
  }

  type t = {
    domains : int;
    placement : (string * int) list;
    resources : resource list;
  }
end

let check_plan ?(title = "native domain ownership") (p : Plan.t) : Report.t =
  let open Plan in
  let violations = ref [] in
  let flag check subject culprit detail =
    violations := { Report.check; subject; culprit; detail } :: !violations
  in
  let dom_of c = List.assoc_opt c p.placement in
  (* Components actually pinned to a running loop; wiring-time entries
     (domain -1) and the spawning thread (index >= domains) are real
     placements but not loop domains. *)
  let run_components =
    List.filter (fun (_, d) -> d >= 0 && d < p.domains) p.placement
  in
  (* pinned: the lint is meaningless for a component it cannot place. *)
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          if dom_of c = None then
            flag "pinned" r.res c
              "touches the resource but is absent from the pinning plan")
        (List.sort_uniq compare (r.writers @ r.readers @ r.grants)))
    p.resources;
  (* ring-spsc: single producer, single consumer — by component, hence
     a fortiori by domain. *)
  let rings = List.filter (fun r -> r.kind = Ring_buf) p.resources in
  List.iter
    (fun r ->
      if List.length r.writers <> 1 then
        flag "ring-spsc" r.res
          (String.concat "+" r.writers)
          (Printf.sprintf
             "%d producers declared for a single-producer ring — pushes from \
              two domains race on the same tail index"
             (List.length r.writers));
      if List.length r.readers <> 1 then
        flag "ring-spsc" r.res
          (String.concat "+" r.readers)
          (Printf.sprintf
             "%d consumers declared for a single-consumer ring"
             (List.length r.readers)))
    rings;
  (* ring-collapse: producer and consumer on the same domain is safe
     (one domain does both ends) but means the parallelism the plan
     promised is gone; only flagged when a spare domain existed, since
     on 2 domains some collapse is forced by the pigeonhole. *)
  let spread = p.domains >= List.length run_components in
  List.iter
    (fun r ->
      match (r.writers, r.readers) with
      | [ w ], [ c ] when w <> c -> (
          match (dom_of w, dom_of c) with
          | Some dw, Some dc when dw >= 0 && dw = dc && spread ->
              flag "ring-collapse" r.res (w ^ "+" ^ c)
                (Printf.sprintf
                   "producer and consumer both resolve to domain %d although \
                    %d domains are available"
                   dw p.domains)
          | _ -> ())
      | _ -> ())
    rings;
  (* cross-domain: a structure with no sanctioned primitive on it must
     stay on one run-time domain. Wiring-time writers (domain -1) are
     exempt — their writes are published by Domain.spawn — so a table
     filled before the fence and only read afterwards is fine. *)
  let unsync = List.filter (fun r -> r.via = None) p.resources in
  List.iter
    (fun r ->
      let doms cs =
        List.filter_map dom_of cs
        |> List.filter (fun d -> d >= 0)
        |> List.sort_uniq compare
      in
      let wd = doms r.writers in
      let all = doms (r.writers @ r.readers) in
      if wd <> [] && List.length all > 1 then
        flag "cross-domain" r.res
          (String.concat "+" (List.sort_uniq compare (r.writers @ r.readers)))
          (Printf.sprintf
             "unsynchronised %s written on domain%s %s and touched on domains \
              %s — no ring, atomic or mutex on the edge"
             (match r.kind with
             | Ring_buf -> "ring"
             | Pool -> "pool"
             | Inbox -> "inbox"
             | Counter -> "counter"
             | Timer_wheel -> "timer wheel"
             | Table -> "table")
             (if List.length wd > 1 then "s" else "")
             (String.concat "," (List.map string_of_int wd))
             (String.concat "," (List.map string_of_int all))))
    unsync;
  (* pool-owner: writers are the owner plus explicit grants. *)
  let pools = List.filter (fun r -> r.kind = Pool) p.resources in
  List.iter
    (fun r ->
      match r.owner with
      | None -> flag "pool-owner" r.res "unattributed" "pool has no owner"
      | Some o ->
          List.iter
            (fun w ->
              if w <> o && not (List.mem w r.grants) then
                flag "pool-owner" r.res w
                  (Printf.sprintf
                     "writes a pool owned by %s without a grant" o))
            r.writers)
    pools;
  {
    Report.title;
    checks =
      [
        ("pinned", List.length p.resources);
        ("ring-spsc", List.length rings);
        ("ring-collapse", List.length rings);
        ("cross-domain", List.length unsync);
        ("pool-owner", List.length pools);
      ];
    violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Dynamic layer: the vector-clock happens-before detector.           *)
(* ------------------------------------------------------------------ *)

module Dynamic = struct
  type labels = {
    ring_name : int -> string;
    pool_name : int -> string;
    counter_name : int -> string;
    loop_name : int -> string;
  }

  let default_labels =
    {
      ring_name = (fun i -> Printf.sprintf "ring#%d" i);
      pool_name = (fun i -> Printf.sprintf "pool#%d" i);
      counter_name = (fun i -> Printf.sprintf "counter#%d" i);
      loop_name = (fun i -> Printf.sprintf "loop%d" i);
    }

  (* The clock vectors are fixed-size arrays; the native runtime caps
     at 16 domains and the spawner makes 17. *)
  let max_tids = 20

  (* One clock component per registered domain, FastTrack-style: an
     access by tid [t] gets epoch [clocks.(t).(t)]; [t]'s own component
     advances only when [t] releases (so a release made after the
     access carries an epoch >= the access's, and an acquirer of that
     release is ordered after the access). *)

  type loc =
    | L_ring of int * int  (* ring id, ABSOLUTE element index *)
    | L_pool of int * int  (* pool id, slot *)
    | L_counter of int * int

  type sync =
    | S_tail of int  (* push releases, pop acquires *)
    | S_head of int  (* pop releases, push acquires *)
    | S_inbox of int  (* post releases, drain/wake acquire *)
    | S_lock of int
    | S_init  (* spawn fence releases, loop start acquires *)

  type raw_access = {
    a_tid : int;
    a_epoch : int;
    a_seq : int;
    a_write : bool;
    a_stack : Printexc.raw_backtrace;
  }

  type lstate = {
    mutable lw : raw_access option;  (* last write *)
    mutable lr : raw_access list;  (* reads since, one entry per tid *)
    mutable poisoned : bool;  (* already reported: stop the flood *)
  }

  type ends = {
    mutable prod : (int * raw_access) option;
    mutable cons : (int * raw_access) option;
    mutable prod_flagged : bool;
    mutable cons_flagged : bool;
  }

  type raw_race = {
    r_check : string;
    r_loc : loc option;  (* None: ring-discipline, loc is the ring *)
    r_ring : int;  (* meaningful when r_loc = None *)
    r_first : raw_access;
    r_second : raw_access;
    r_trace : (int * int * Hook.nevent) array;  (* seq, tid, event *)
  }

  type state = {
    mu : Mutex.t;
    labels : labels;
    mutable started : bool;  (* spawn fence seen *)
    tids : (int, int) Hashtbl.t;  (* raw Domain.self -> dense tid *)
    names : string array;  (* dense tid -> label *)
    clocks : int array array;
    mutable ntids : int;
    sync : (sync, int array) Hashtbl.t;
    locs : (loc, lstate) Hashtbl.t;
    rings : (int, ends) Hashtbl.t;
    mutable races : raw_race list;
    mutable n_races : int;
    mutable suppressed : int;
    mutable events : int;
    mutable accesses : int;  (* N_access events delivered *)
    base : int * int;  (* the hook's native (seen, kept) at arming *)
    sample : int;
    trace : (int * int * Hook.nevent) array;  (* ring buffer *)
    mutable trace_n : int;
  }

  let trace_cap = 256
  let trace_tail = 96

  (* Races past this many are counted as suppressed, not reported. *)
  let max_reports = 16

  let dummy_event = Hook.N_spawn_fence

  let make_state ~labels =
    {
      mu = Mutex.create ();
      labels;
      started = false;
      tids = Hashtbl.create 8;
      names = Array.make max_tids "";
      clocks = Array.init max_tids (fun _ -> Array.make max_tids 0);
      ntids = 0;
      sync = Hashtbl.create 64;
      locs = Hashtbl.create 4096;
      rings = Hashtbl.create 32;
      races = [];
      n_races = 0;
      suppressed = 0;
      events = 0;
      accesses = 0;
      base = Hook.counts Hook.Native;
      sample = Hook.sample ();
      trace = Array.make trace_cap (0, 0, dummy_event);
      trace_n = 0;
    }

  let st : state option ref = ref None

  let tid_of s =
    let raw = (Domain.self () :> int) in
    match Hashtbl.find_opt s.tids raw with
    | Some t -> t
    | None ->
        let t = s.ntids in
        if t >= max_tids then (* beyond the model: charge everything to
                                 the last slot rather than crash *)
          max_tids - 1
        else begin
          Hashtbl.add s.tids raw t;
          s.ntids <- t + 1;
          (* FastTrack convention: a thread is born at epoch 1 while
             everyone else knows 0 of it, so even its first access —
             before its first release — is unordered for a peer that
             never synchronised with it. *)
          s.clocks.(t).(t) <- 1;
          s.names.(t) <-
            (if t = 0 then "main" else Printf.sprintf "domain#%d" raw);
          t
        end

  let join dst src n =
    for i = 0 to n - 1 do
      if src.(i) > dst.(i) then dst.(i) <- src.(i)
    done

  let acquire s tid key =
    match Hashtbl.find_opt s.sync key with
    | None -> ()
    | Some c -> join s.clocks.(tid) c s.ntids

  let release s tid key =
    let c =
      match Hashtbl.find_opt s.sync key with
      | Some c -> c
      | None ->
          let c = Array.make max_tids 0 in
          Hashtbl.add s.sync key c;
          c
    in
    join c s.clocks.(tid) s.ntids;
    s.clocks.(tid).(tid) <- s.clocks.(tid).(tid) + 1

  let ordered s tid (a : raw_access) =
    a.a_tid = tid || s.clocks.(tid).(a.a_tid) >= a.a_epoch

  let snapshot_trace s =
    let n = min s.trace_n trace_tail in
    let first = s.trace_n - n in
    Array.init n (fun i -> s.trace.((first + i) mod trace_cap))

  let add_race s ~check ~loc ~ring ~first ~second =
    if s.n_races >= max_reports then s.suppressed <- s.suppressed + 1
    else begin
      s.n_races <- s.n_races + 1;
      s.races <-
        {
          r_check = check;
          r_loc = loc;
          r_ring = ring;
          r_first = first;
          r_second = second;
          r_trace = snapshot_trace s;
        }
        :: s.races
    end

  let mk_access s tid ~write =
    {
      a_tid = tid;
      a_epoch = s.clocks.(tid).(tid);
      a_seq = s.events;
      a_write = write;
      a_stack = Printexc.get_callstack 16;
    }

  let find_loc s loc =
    match Hashtbl.find_opt s.locs loc with
    | Some l -> l
    | None ->
        let l = { lw = None; lr = []; poisoned = false } in
        Hashtbl.add s.locs loc l;
        l

  (* The FastTrack core: a write must be ordered after the last write
     and after every outstanding read; a read must be ordered after
     the last write. One report per location, then it is poisoned. *)
  let check_access s tid loc ~write =
    let l = find_loc s loc in
    if not l.poisoned then begin
      let a = mk_access s tid ~write in
      let clash prev =
        l.poisoned <- true;
        add_race s ~check:"hb-race" ~loc:(Some loc) ~ring:(-1) ~first:prev
          ~second:a
      in
      (match l.lw with
      | Some w when not (ordered s tid w) -> clash w
      | _ -> ());
      if write then begin
        if not l.poisoned then
          List.iter (fun r -> if not (ordered s tid r) then clash r) l.lr;
        l.lw <- Some a;
        l.lr <- []
      end
      else l.lr <- a :: List.filter (fun r -> r.a_tid <> tid) l.lr
    end

  let find_ring s ring =
    match Hashtbl.find_opt s.rings ring with
    | Some e -> e
    | None ->
        let e =
          { prod = None; cons = None; prod_flagged = false;
            cons_flagged = false }
        in
        Hashtbl.add s.rings ring e;
        e

  (* Dynamic SPSC ownership: claims bind only after the spawn fence
     (wiring pushes run on the spawning thread and would otherwise
     poison every ring's producer end). A claim violation is reported
     regardless of the clock state — two producers are wrong even when
     the particular interleaving happened to be ordered. *)
  let check_producer s tid ring =
    if s.started then begin
      let e = find_ring s ring in
      match e.prod with
      | None -> e.prod <- Some (tid, mk_access s tid ~write:true)
      | Some (owner, first) ->
          if owner <> tid && not e.prod_flagged then begin
            e.prod_flagged <- true;
            add_race s ~check:"ring-producer" ~loc:None ~ring ~first
              ~second:(mk_access s tid ~write:true)
          end
    end

  let check_consumer s tid ring =
    if s.started then begin
      let e = find_ring s ring in
      match e.cons with
      | None -> e.cons <- Some (tid, mk_access s tid ~write:false)
      | Some (owner, first) ->
          if owner <> tid && not e.cons_flagged then begin
            e.cons_flagged <- true;
            add_race s ~check:"ring-consumer" ~loc:None ~ring ~first
              ~second:(mk_access s tid ~write:false)
          end
    end

  (* Ring elements are sampled like every other location: the push
     and the pop of a kept element are both checked. Clock joins are
     never sampled. *)
  let element_kept ring index = Hook.subject_kept (Hashtbl.hash (ring, index))

  let on_event s ev =
    Mutex.lock s.mu;
    (try
       let tid = tid_of s in
       s.events <- s.events + 1;
       s.trace.(s.trace_n mod trace_cap) <- (s.events, tid, ev);
       s.trace_n <- s.trace_n + 1;
       (match ev with
       | Hook.N_ring_push { ring; index } ->
           (* Order matters within the event: acquire the head (slot
              reuse edge), then the slot check at the current clock,
              then release the tail — mirroring that the real release
              store happens after the slot write. *)
           acquire s tid (S_head ring);
           check_producer s tid ring;
           if element_kept ring index then
             check_access s tid (L_ring (ring, index)) ~write:true;
           release s tid (S_tail ring)
       | Hook.N_ring_pop { ring; index } ->
           acquire s tid (S_tail ring);
           check_consumer s tid ring;
           if element_kept ring index then
             check_access s tid (L_ring (ring, index)) ~write:false;
           release s tid (S_head ring)
       | Hook.N_post { loop } -> release s tid (S_inbox loop)
       | Hook.N_drain { loop } -> acquire s tid (S_inbox loop)
       | Hook.N_park _ -> ()
       | Hook.N_wake { loop } -> acquire s tid (S_inbox loop)
       | Hook.N_loop_start { loop } ->
           acquire s tid S_init;
           s.names.(tid) <- s.labels.loop_name loop
       | Hook.N_loop_stop _ -> release s tid S_init
       | Hook.N_spawn_fence ->
           s.started <- true;
           release s tid S_init
       | Hook.N_lock { lock; acquire = acq } ->
           if acq then acquire s tid (S_lock lock)
           else release s tid (S_lock lock)
       | Hook.N_access { kind; id; sub; write } ->
           s.accesses <- s.accesses + 1;
           let loc =
             match kind with
             | Hook.N_pool_slot -> L_pool (id, sub)
             | Hook.N_counter -> L_counter (id, sub)
           in
           check_access s tid loc ~write)
     with e ->
       Mutex.unlock s.mu;
       raise e);
    Mutex.unlock s.mu

  let token : Hook.token option ref = ref None

  let arm ?(labels = default_labels) () =
    Option.iter Hook.remove !token;
    let s = make_state ~labels in
    st := Some s;
    (* Register the arming thread as tid 0 = "main". *)
    Mutex.lock s.mu;
    ignore (tid_of s);
    Mutex.unlock s.mu;
    token :=
      Some
        (Hook.native_add (fun ev ->
             match !st with Some s -> on_event s ev | None -> ()))

  let fence () = Hook.native_emit Hook.N_spawn_fence

  type access_view = {
    who : string;
    what : string;
    seq : int;
    stack : string list;
  }

  type race_view = {
    check : string;
    loc : string;
    first : access_view;
    second : access_view;
    trace : string list;
  }

  type outcome = {
    races : race_view list;
    suppressed : int;
    events : int;
    accesses_seen : int;
    accesses_kept : int;
    sample : int;
    domains_seen : int;
    locations : int;
    sync_objects : int;
    overhead_cycles : int;
  }

  (* Same modelled-cost family as Sanitizer.overhead_cycles: a flat
     per-delivered-event charge, plus the cheap sampled-out access
     test (one atomic add + one AND). *)
  let cycles_per_event = 120
  let cycles_per_skipped_access = 4

  let loc_label lb = function
    | L_ring (r, i) -> Printf.sprintf "%s element %d" (lb.ring_name r) i
    | L_pool (p, sl) -> Printf.sprintf "%s slot %d" (lb.pool_name p) sl
    | L_counter (c, sub) ->
        if sub = 0 then lb.counter_name c
        else Printf.sprintf "%s[%d]" (lb.counter_name c) sub

  let event_label lb = function
    | Hook.N_ring_push { ring; index } ->
        Printf.sprintf "push %s idx %d" (lb.ring_name ring) index
    | Hook.N_ring_pop { ring; index } ->
        Printf.sprintf "pop %s idx %d" (lb.ring_name ring) index
    | Hook.N_post { loop } -> Printf.sprintf "post -> %s" (lb.loop_name loop)
    | Hook.N_drain { loop } -> Printf.sprintf "drain %s" (lb.loop_name loop)
    | Hook.N_park { loop } -> Printf.sprintf "park %s" (lb.loop_name loop)
    | Hook.N_wake { loop } -> Printf.sprintf "wake %s" (lb.loop_name loop)
    | Hook.N_loop_start { loop } ->
        Printf.sprintf "start %s" (lb.loop_name loop)
    | Hook.N_loop_stop { loop } -> Printf.sprintf "stop %s" (lb.loop_name loop)
    | Hook.N_spawn_fence -> "spawn-fence"
    | Hook.N_lock { lock; acquire } ->
        Printf.sprintf "%s %s"
          (if acquire then "lock" else "unlock")
          (lb.pool_name lock)
    | Hook.N_access { kind; id; sub; write } ->
        Printf.sprintf "%s %s"
          (if write then "write" else "read")
          (loc_label lb
             (match kind with
             | Hook.N_pool_slot -> L_pool (id, sub)
             | Hook.N_counter -> L_counter (id, sub)))

  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0

  let stack_lines bt =
    let all =
      Printexc.raw_backtrace_to_string bt
      |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> "")
    in
    (* The innermost frames are the detector and the hook themselves;
       drop them so the first line names the access site. If no frame
       survives (no debug info compiled in), keep the raw stack. *)
    let internal l =
      contains l "Newt_verify__Race" || contains l "Newt_channels__Hook"
    in
    match List.filter (fun l -> not (internal l)) all with
    | [] -> all
    | outer -> outer

  let view_access s what (a : raw_access) =
    {
      who = s.names.(a.a_tid);
      what;
      seq = a.a_seq;
      stack = stack_lines a.a_stack;
    }

  let what_of loc (a : raw_access) =
    match loc with
    | Some (L_ring _) -> if a.a_write then "ring push" else "ring pop"
    | Some (L_pool _) -> if a.a_write then "pool write" else "pool read"
    | Some (L_counter _) ->
        if a.a_write then "counter write" else "counter read"
    | None -> if a.a_write then "ring push" else "ring pop"

  let view_race s (r : raw_race) =
    let loc =
      match r.r_loc with
      | Some l -> loc_label s.labels l
      | None -> s.labels.ring_name r.r_ring
    in
    {
      check = r.r_check;
      loc;
      first = view_access s (what_of r.r_loc r.r_first) r.r_first;
      second = view_access s (what_of r.r_loc r.r_second) r.r_second;
      trace =
        Array.to_list r.r_trace
        |> List.map (fun (seq, tid, ev) ->
               Printf.sprintf "#%d [%s] %s" seq s.names.(tid)
                 (event_label s.labels ev));
    }

  let disarm () =
    Option.iter Hook.remove !token;
    token := None;
    match !st with
    | None ->
        {
          races = [];
          suppressed = 0;
          events = 0;
          accesses_seen = 0;
          accesses_kept = 0;
          sample = 1;
          domains_seen = 0;
          locations = 0;
          sync_objects = 0;
          overhead_cycles = 0;
        }
    | Some s ->
        st := None;
        Mutex.lock s.mu;
        (* The hook counts only while a period above 1 is set; at 1
           every access is delivered. *)
        let seen, kept =
          if s.sample = 1 then (s.accesses, s.accesses)
          else
            let seen, kept = Hook.counts Hook.Native in
            (seen - fst s.base, kept - snd s.base)
        in
        let races = List.rev_map (view_race s) s.races in
        let out =
          {
            races;
            suppressed = s.suppressed;
            events = s.events;
            accesses_seen = seen;
            accesses_kept = kept;
            sample = s.sample;
            domains_seen = s.ntids;
            locations = Hashtbl.length s.locs;
            sync_objects = Hashtbl.length s.sync;
            overhead_cycles =
              (s.events * cycles_per_event)
              + ((seen - kept) * cycles_per_skipped_access);
          }
        in
        Mutex.unlock s.mu;
        out

  let ok o = o.races = [] && o.suppressed = 0

  let short_stack a =
    match a.stack with [] -> "<no frames>" | l :: _ -> String.trim l

  let report ~title (o : outcome) : Report.t =
    let violations =
      List.map
        (fun r ->
          {
            Report.check = r.check;
            subject = r.loc;
            culprit = Printf.sprintf "%s vs %s" r.first.who r.second.who;
            detail =
              Printf.sprintf
                "%s by %s (#%d, %s) is unordered with %s by %s (#%d, %s)"
                r.first.what r.first.who r.first.seq (short_stack r.first)
                r.second.what r.second.who r.second.seq (short_stack r.second);
          })
        o.races
    in
    let violations =
      if o.suppressed = 0 then violations
      else
        violations
        @ [
            {
              Report.check = "hb-race";
              subject = "(report cap)";
              culprit = "detector";
              detail =
                Printf.sprintf "%d further races suppressed after the cap"
                  o.suppressed;
            };
          ]
    in
    {
      Report.title;
      checks =
        [
          ("hb-race", o.locations);
          ("ring-owner", o.sync_objects);
          ("sampled-access", o.accesses_kept);
        ];
      violations;
    }

  let to_json ~title (o : outcome) =
    let module Json = Newt_sim.Json in
    (* The unified violations shape shared with Report.to_json. *)
    let violation r =
      Report.violation_json
        { Report.check = r.check; subject = r.loc;
          culprit = Printf.sprintf "%s vs %s" r.first.who r.second.who;
          detail =
            Printf.sprintf "%s (#%d) unordered with %s (#%d)" r.first.what
              r.first.seq r.second.what r.second.seq }
    in
    (* The mcheck-style counterexamples: full stacks + replayable trace. *)
    let access a =
      Json.Obj
        [ ("who", String a.who); ("what", String a.what); ("seq", Int a.seq);
          ("stack", Json.strings a.stack) ]
    in
    let counterexample r =
      Json.Obj
        [ ("check", String r.check); ("loc", String r.loc);
          ("first", access r.first); ("second", access r.second);
          ("trace", Json.strings r.trace) ]
    in
    Json.Obj
      [ ("title", String title); ("ok", Bool (ok o));
        ( "checks",
          Json.ints
            [ ("hb-race", o.locations); ("ring-owner", o.sync_objects);
              ("sampled-access", o.accesses_kept) ] );
        ("violations", List (List.map violation o.races));
        ("counterexamples", List (List.map counterexample o.races));
        ( "counters",
          Json.ints
            [ ("events", o.events); ("accesses_seen", o.accesses_seen);
              ("accesses_kept", o.accesses_kept); ("sample", o.sample);
              ("domains", o.domains_seen); ("locations", o.locations);
              ("sync_objects", o.sync_objects);
              ("hook_overhead_cycles", o.overhead_cycles) ] );
        ("races", Int (List.length o.races)); ("suppressed", Int o.suppressed) ]
end
