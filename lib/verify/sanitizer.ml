module Hook = Newt_channels.Hook
module Rich_ptr = Newt_channels.Rich_ptr

type violation =
  | Double_free of { ptr : Rich_ptr.t; actor : string option }
  | Free_in_flight of {
      pool : int;
      slot : int;
      actor : string option;
      in_flight : int;
    }
  | Non_owner_write of {
      pool : int;
      slot : int;
      actor : string;
      owner : string;
    }
  | Cross_incarnation_free of {
      pool : int;
      slot : int;
      actor : string;
      alloc_epoch : int;
      free_epoch : int;
    }

type leak = {
  pool : int;
  slot : int;
  allocator : string option;
  holder : string option;
}

(* Shadow state for one live slot. *)
type slot_state = {
  mutable allocator : string option;
  mutable alloc_epoch : int;  (* the allocator's incarnation *)
  mutable holder : string option;
  mutable in_flight : int;  (* queued channel messages referencing it *)
}

let owners : (int, string) Hashtbl.t = Hashtbl.create 16
let granted : (int, unit) Hashtbl.t = Hashtbl.create 16
let slots : (int * int, slot_state) Hashtbl.t = Hashtbl.create 1024
let viols : violation list ref = ref []
let stales = ref 0
let allocs = ref 0
let frees = ref 0
let handoffs = ref 0
let events = ref 0
let token : Hook.token option ref = ref None

(* What one shadow update costs in model cycles had the hook run
   inline in the stack proper (a hash probe or two): the accounting
   constant behind {!overhead_cycles}. *)
let cycles_per_event = 40

let clear () =
  Hashtbl.reset owners;
  Hashtbl.reset granted;
  Hashtbl.reset slots;
  viols := [];
  stales := 0;
  allocs := 0;
  frees := 0;
  handoffs := 0;
  events := 0

let record v = viols := v :: !viols

let on_event ~actor ev =
  incr events;
  match ev with
  | Hook.Pool_own { pool; owner } -> Hashtbl.replace owners pool owner
  | Hook.Pool_grant { pool } -> Hashtbl.replace granted pool ()
  | Hook.Pool_alloc { pool; slot; gen = _ } ->
      incr allocs;
      Hashtbl.replace slots (pool, slot)
        {
          allocator = actor;
          alloc_epoch = Hook.epoch ();
          holder = actor;
          in_flight = 0;
        }
  | Hook.Pool_write { pool; slot; gen = _ } -> (
      match (actor, Hashtbl.find_opt owners pool) with
      | Some a, Some owner when a <> owner && not (Hashtbl.mem granted pool) ->
          record (Non_owner_write { pool; slot; actor = a; owner })
      | _ -> ())
  | Hook.Pool_read _ -> ()
  | Hook.Pool_free { pool; slot; gen = _ } -> (
      incr frees;
      match Hashtbl.find_opt slots (pool, slot) with
      | Some st ->
          if st.in_flight > 0 then
            record
              (Free_in_flight { pool; slot; actor; in_flight = st.in_flight });
          (* A slot allocated by incarnation [k] of a server and freed
             by incarnation [k+1] of the same name survived a crash the
             generic teardown should have reclaimed it in — suspect
             even when pool generations line up. DMA-granted pools are
             exempt: their ring slots are device-held and legitimately
             straddle the driver's incarnations. *)
          (match (actor, st.allocator) with
          | Some a, Some alloc_name
            when a = alloc_name
                 && Hook.epoch () > st.alloc_epoch
                 && not (Hashtbl.mem granted pool) ->
              record
                (Cross_incarnation_free
                   {
                     pool;
                     slot;
                     actor = a;
                     alloc_epoch = st.alloc_epoch;
                     free_epoch = Hook.epoch ();
                   })
          | _ -> ());
          Hashtbl.remove slots (pool, slot)
      | None -> ())
  | Hook.Pool_free_all { pool } ->
      (* The owner died; the whole pool is reclaimed by design. *)
      let stale_keys =
        Hashtbl.fold
          (fun (p, s) _ acc -> if p = pool then (p, s) :: acc else acc)
          slots []
      in
      List.iter (Hashtbl.remove slots) stale_keys
  | Hook.Pool_double_free { ptr } -> record (Double_free { ptr; actor })
  | Hook.Pool_stale _ -> incr stales
  | Hook.Chan_handoff { chan = _; ptr } -> (
      incr handoffs;
      match Hashtbl.find_opt slots (ptr.Rich_ptr.pool, ptr.Rich_ptr.slot) with
      | Some st -> st.in_flight <- st.in_flight + 1
      | None -> ())
  | Hook.Chan_receive { chan = _; ptr } -> (
      match Hashtbl.find_opt slots (ptr.Rich_ptr.pool, ptr.Rich_ptr.slot) with
      | Some st ->
          if st.in_flight > 0 then st.in_flight <- st.in_flight - 1;
          st.holder <- actor
      | None -> ())
  | Hook.Chan_dropped { chan = _; ptr } -> (
      match Hashtbl.find_opt slots (ptr.Rich_ptr.pool, ptr.Rich_ptr.slot) with
      | Some st -> if st.in_flight > 0 then st.in_flight <- st.in_flight - 1
      | None -> ())
  | Hook.Req_submit _ | Hook.Req_confirm _ | Hook.Req_abort _ | Hook.Req_reset _
  | Hook.Msg_req _ | Hook.Msg_conf _ ->
      (* Protocol-level events belong to Verify.Protocol. *)
      ()

let uninstall () =
  Option.iter Hook.remove !token;
  token := None

let install () =
  uninstall ();
  clear ();
  token := Some (Hook.add on_event)

let active () = !token <> None
let reset () = clear ()
let violations () = List.rev !viols
let stale_count () = !stales
let alloc_count () = !allocs
let free_count () = !frees
let handoff_count () = !handoffs
let event_count () = !events
let overhead_cycles () = !events * cycles_per_event

let leaks () =
  Hashtbl.fold
    (fun (pool, slot) st acc ->
      if Hashtbl.mem granted pool then acc
      else { pool; slot; allocator = st.allocator; holder = st.holder } :: acc)
    slots []
  |> List.sort compare

let pool_owner pool = Hashtbl.find_opt owners pool

let who = function Some a -> a | None -> "unattributed"

let describe = function
  | Double_free { ptr; actor } ->
      {
        Report.check = "double-free";
        subject =
          Printf.sprintf "pool %d slot %d" ptr.Rich_ptr.pool ptr.Rich_ptr.slot;
        culprit = who actor;
        detail = "slot freed twice";
      }
  | Free_in_flight { pool; slot; actor; in_flight } ->
      {
        Report.check = "free-in-flight";
        subject = Printf.sprintf "pool %d slot %d" pool slot;
        culprit = who actor;
        detail =
          Printf.sprintf "freed while %d queued message%s still reference it"
            in_flight
            (if in_flight = 1 then "" else "s");
      }
  | Non_owner_write { pool; slot; actor; owner } ->
      {
        Report.check = "non-owner-write";
        subject = Printf.sprintf "pool %d slot %d" pool slot;
        culprit = actor;
        detail =
          Printf.sprintf "write into %s's pool without a grant" owner;
      }
  | Cross_incarnation_free { pool; slot; actor; alloc_epoch; free_epoch } ->
      {
        Report.check = "cross-incarnation-free";
        subject = Printf.sprintf "pool %d slot %d" pool slot;
        culprit = actor;
        detail =
          Printf.sprintf
            "allocated by incarnation %d but freed by incarnation %d of the \
             same server — the slot leaked across a crash reclaim"
            alloc_epoch free_epoch;
      }

let describe_leak (l : leak) =
  {
    Report.check = "leak";
    subject = Printf.sprintf "pool %d slot %d" l.pool l.slot;
    culprit = who (match l.holder with Some _ as h -> h | None -> l.allocator);
    detail = "slot still allocated at end of run";
  }

let report ?(check_leaks = false) ~title () =
  let vs = List.map describe (violations ()) in
  let vs = if check_leaks then vs @ List.map describe_leak (leaks ()) else vs in
  {
    Report.title;
    checks =
      [
        ("allocations", !allocs);
        ("frees", !frees);
        ("hand-offs", !handoffs);
        ("stale-derefs", !stales);
      ];
    violations = vs;
  }
