(* Tests for the discrete-event engine, RNG, stats and series. *)

module Time = Newt_sim.Time
module Eventq = Newt_sim.Eventq
module Fifo = Newt_sim.Fifo
module Engine = Newt_sim.Engine
module Rng = Newt_sim.Rng
module Stats = Newt_sim.Stats
module Series = Newt_sim.Series

let test_eventq_order () =
  let q = Eventq.create ~dummy:"" () in
  List.iter (fun (at, v) -> ignore (Eventq.push q at v : string Eventq.entry))
    [ (30, "c"); (10, "a"); (20, "b") ];
  Alcotest.(check string) "first" "a" (Eventq.pop q);
  Alcotest.(check string) "second" "b" (Eventq.pop q);
  Alcotest.(check string) "third" "c" (Eventq.pop q);
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

let test_eventq_fifo_ties () =
  let q = Eventq.create ~dummy:(-1) () in
  for i = 0 to 99 do
    ignore (Eventq.push q 5 i : int Eventq.entry)
  done;
  for i = 0 to 99 do
    Alcotest.(check int) "time" 5 (Eventq.min_time q);
    Alcotest.(check int) "fifo order among ties" i (Eventq.pop q)
  done;
  Alcotest.(check bool) "exhausted" true (Eventq.is_empty q)

let test_eventq_many () =
  let q = Eventq.create ~dummy:0 () in
  let rng = Rng.create 7 in
  let n = 2000 in
  let entries =
    Array.init n (fun _ ->
        let at = Rng.int rng 100000 in
        Eventq.push q at at)
  in
  (* Remove every third entry from wherever it sits in the heap. *)
  Array.iteri (fun i e -> if i mod 3 = 0 then Eventq.remove e) entries;
  let kept = n - ((n + 2) / 3) in
  Alcotest.(check int) "removed entries leave" kept (Eventq.length q);
  Array.iteri (fun i e -> if i mod 3 = 0 then Eventq.remove e) entries;
  Alcotest.(check int) "removing twice is a no-op" kept (Eventq.length q);
  let last = ref (-1) in
  let count = ref 0 in
  while not (Eventq.is_empty q) do
    let at = Eventq.min_time q in
    Alcotest.(check int) "value is its time" at (Eventq.pop q);
    Alcotest.(check bool) "non-decreasing" true (at >= !last);
    last := at;
    incr count
  done;
  Alcotest.(check int) "all popped" kept !count;
  let fresh = Eventq.push q 1 1 in
  Array.iter Eventq.remove entries;
  Alcotest.(check int) "removing popped entries is a no-op" 1 (Eventq.length q);
  Eventq.remove fresh;
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e 100 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e 50 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e 150 (fun () -> log := "c" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 150 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e 10 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check int) "no pending" 0 (Engine.pending e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e (i * 100) (fun () -> incr count))
  done;
  Engine.run ~until:450 e;
  Alcotest.(check int) "only events up to 450" 4 !count;
  Alcotest.(check int) "clock stopped at until" 450 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "remaining events fire" 10 !count

let test_engine_until_skips_cancelled () =
  (* A cancelled event at or before [until] must not let the run fire
     the next live event past [until]. *)
  let e = Engine.create () in
  let fired = ref false in
  Engine.cancel (Engine.schedule e 10 ignore);
  ignore (Engine.schedule e 100 (fun () -> fired := true) : Engine.handle);
  Engine.run ~until:50 e;
  Alcotest.(check bool) "event past until did not fire" false !fired;
  Alcotest.(check int) "clock at until" 50 (Engine.now e);
  Alcotest.(check int) "later event still pending" 1 (Engine.pending e)

let test_engine_until_clock () =
  (* The clock ends at [until] whatever the queue holds. *)
  let e = Engine.create () in
  Engine.run ~until:1000 e;
  Alcotest.(check int) "empty queue: clock at until" 1000 (Engine.now e);
  let e = Engine.create () in
  Engine.cancel (Engine.schedule e 5000 ignore);
  Engine.run ~until:1000 e;
  Alcotest.(check int) "cancelled entry: clock at until" 1000 (Engine.now e);
  Engine.run ~until:500 e;
  Alcotest.(check int) "clock never goes back" 1000 (Engine.now e)

(* Model test: random interleavings of schedule, cancel and step against
   a reference list of live events ordered by (time, scheduling order).
   Events go either straight into the queue or onto one of two lanes,
   at a time no earlier than the lane's last, so lane events tie with
   each other and with plain events. Thunks may cancel themselves (a
   no-op: they already fired), cancel another event (possibly due at
   the same time, or already gone; a lane event cannot be cancelled),
   schedule a new event, or clear a lane. *)
type action =
  | Quiet
  | Cancel_self
  | Cancel_other of int
  | Spawn of int
  | Spawn_lane of int * int
  | Clear of int

type op =
  | Schedule of int * action
  | Schedule_lane of int * int * action
  | Clear_lane of int
  | Cancel of int
  | Step

let lanes = 2

let gen_op =
  QCheck2.Gen.(
    let lane = int_range 0 (lanes - 1) in
    let action =
      oneof
        [
          pure Quiet;
          pure Cancel_self;
          map (fun k -> Cancel_other k) (int_range 0 63);
          map (fun d -> Spawn d) (int_range 0 3);
          map2 (fun l d -> Spawn_lane (l, d)) lane (int_range 0 2);
          map (fun l -> Clear l) lane;
        ]
    in
    frequency
      [
        (4, map2 (fun d a -> Schedule (d, a)) (int_range 0 3) action);
        (4, map3 (fun l d a -> Schedule_lane (l, d, a)) lane (int_range 0 2) action);
        (1, map (fun l -> Clear_lane l) lane);
        (2, map (fun k -> Cancel k) (int_range 0 63));
        (3, pure Step);
      ])

let print_op =
  let action = function
    | Quiet -> "quiet"
    | Cancel_self -> "cancel-self"
    | Cancel_other k -> Printf.sprintf "cancel %d" k
    | Spawn d -> Printf.sprintf "spawn %d" d
    | Spawn_lane (l, d) -> Printf.sprintf "spawn lane %d +%d" l d
    | Clear l -> Printf.sprintf "clear lane %d" l
  in
  function
  | Schedule (d, a) -> Printf.sprintf "Schedule(%d,%s)" d (action a)
  | Schedule_lane (l, d, a) -> Printf.sprintf "Schedule_lane(%d,%d,%s)" l d (action a)
  | Clear_lane l -> Printf.sprintf "Clear_lane %d" l
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"

(* A lane event's time: [d] past the later of the clock and the lane's
   last time, so a lane's times never decrease. *)
let lane_time ~clock ~last d = max clock last + d

let engine_matches_model ops =
  let e = Engine.create () in
  (* Engine side: every event's handle ([None] on a lane), each lane's
     last time, and the ids that fired. *)
  let handles = ref [||] in
  let lane = Array.init lanes (fun _ -> Engine.lane e) in
  let last = Array.make lanes 0 in
  let fired = ref [] in
  let cleared = ref [] in
  let rec run_action id = function
    | Quiet -> ()
    | Cancel_self -> Option.iter Engine.cancel !handles.(id)
    | Cancel_other k -> Option.iter Engine.cancel !handles.(k mod Array.length !handles)
    | Spawn d -> schedule d Quiet
    | Spawn_lane (l, d) -> schedule_lane l d Quiet
    | Clear l -> clear l
  and thunk id action () =
    fired := id :: !fired;
    run_action id action
  and schedule delay action =
    let id = Array.length !handles in
    let h = Engine.schedule e delay (thunk id action) in
    handles := Array.append !handles [| Some h |]
  and schedule_lane l d action =
    let id = Array.length !handles in
    let at = lane_time ~clock:(Engine.now e) ~last:last.(l) d in
    last.(l) <- at;
    Engine.schedule_lane lane.(l) at (thunk id action);
    handles := Array.append !handles [| None |]
  and clear l =
    cleared := Engine.clear_lane lane.(l) :: !cleared;
    last.(l) <- 0
  in
  (* Model side: live (time, id) in firing order, the clock, the ids
     fired, each id's action and lane, and each lane's last time. *)
  let live = ref [] and clock = ref 0 and model_fired = ref [] in
  let model_cleared = ref [] in
  let actions = ref [||] and lane_of = ref [||] in
  let model_last = Array.make lanes 0 in
  let model_add at action l =
    live := List.merge compare !live [ (at, Array.length !actions) ];
    actions := Array.append !actions [| action |];
    lane_of := Array.append !lane_of [| l |]
  in
  let model_schedule at action = model_add at action None in
  let model_schedule_lane l d action =
    let at = lane_time ~clock:!clock ~last:model_last.(l) d in
    model_last.(l) <- at;
    model_add at action (Some l)
  in
  let model_cancel k =
    let id = k mod Array.length !actions in
    if !lane_of.(id) = None then live := List.filter (fun (_, i) -> i <> id) !live
  in
  let model_clear l =
    let on_lane, rest = List.partition (fun (_, i) -> !lane_of.(i) = Some l) !live in
    live := rest;
    model_cleared := List.length on_lane :: !model_cleared;
    model_last.(l) <- 0
  in
  let model_step () =
    match !live with
    | [] -> false
    | (at, id) :: rest ->
        live := rest;
        clock := at;
        model_fired := id :: !model_fired;
        (match !actions.(id) with
        | Quiet | Cancel_self -> ()
        | Cancel_other k -> model_cancel k
        | Spawn d -> model_schedule (at + d) Quiet
        | Spawn_lane (l, d) -> model_schedule_lane l d Quiet
        | Clear l -> model_clear l);
        true
  in
  let agree () =
    Engine.pending e = List.length !live
    && Engine.now e = !clock
    && !fired = !model_fired
    && !cleared = !model_cleared
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Schedule (d, a) ->
            schedule d a;
            model_schedule (!clock + d) a;
            true
        | Schedule_lane (l, d, a) ->
            schedule_lane l d a;
            model_schedule_lane l d a;
            true
        | Clear_lane l ->
            clear l;
            model_clear l;
            true
        | Cancel k ->
            if !actions <> [||] then begin
              Option.iter Engine.cancel !handles.(k mod Array.length !handles);
              model_cancel k
            end;
            true
        | Step -> Engine.step e = model_step ()
      in
      ok && agree ())
    ops
  && begin
       (* Drain both: the rest fires in the same order. *)
       Engine.run e;
       while model_step () do
         ()
       done;
       agree () && Engine.pending e = 0
     end

let test_engine_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"engine agrees with a sorted-list model"
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck2.Gen.(list_size (int_range 1 120) gen_op)
       engine_matches_model)

(* Differential test: the engine against the single-queue engine it
   replaced, kept here as the oracle. In the oracle every pending
   event, lane event or not, is one entry of one ordered queue keyed
   by (time, seq), with seq from one counter; a lane is only a count
   and a last time. The engine keeps lanes in a heap of their own and
   must still fire the same events in the same order at the same
   clock, with equal [pending] and [lane_length] after every
   operation. Scripts mix [schedule], [schedule_at], [cancel],
   [schedule_lane] on four lanes (delays of 0-2 make same-time ties
   between lanes and with timers common), [clear_lane], [run ~until]
   and [step], and thunks that schedule, cancel and clear from inside
   the event loop. *)
module Oracle = struct
  module Q = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = {
    mutable clock : int;
    mutable next_seq : int;
    mutable queue : (int option * (unit -> unit)) Q.t;
    counts : int array;
    last : int array;
  }

  let create lanes =
    {
      clock = 0;
      next_seq = 0;
      queue = Q.empty;
      counts = Array.make lanes 0;
      last = Array.make lanes 0;
    }

  let push t at lane f =
    let key = (at, t.next_seq) in
    t.next_seq <- t.next_seq + 1;
    t.queue <- Q.add key (lane, f) t.queue;
    key

  let schedule_at t at f = push t at None f
  let cancel t key = t.queue <- Q.remove key t.queue

  let schedule_lane t l at f =
    if at < t.last.(l) then invalid_arg "Oracle.schedule_lane";
    t.last.(l) <- at;
    t.counts.(l) <- t.counts.(l) + 1;
    ignore (push t at (Some l) f : int * int)

  let clear_lane t l =
    t.queue <- Q.filter (fun _ (lane, _) -> lane <> Some l) t.queue;
    let n = t.counts.(l) in
    t.counts.(l) <- 0;
    t.last.(l) <- 0;
    n

  let step_until t stop =
    match Q.min_binding_opt t.queue with
    | Some (((at, _) as key), (lane, f)) when at <= stop ->
        t.queue <- Q.remove key t.queue;
        t.clock <- at;
        Option.iter (fun l -> t.counts.(l) <- t.counts.(l) - 1) lane;
        f ();
        true
    | Some _ | None -> false

  let pending t = Q.cardinal t.queue
end

(* One simulator under test, as closures, so a script runs the same
   way on the engine and on the oracle. *)
type 'h sim = {
  now : unit -> int;
  schedule : int -> (unit -> unit) -> 'h;
  schedule_at : int -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  schedule_lane : int -> int -> (unit -> unit) -> unit;
  clear_lane : int -> int;
  lane_length : int -> int;
  pending : unit -> int;
  step : unit -> bool;
  run_until : int -> unit;
}

let diff_lanes = 4

let engine_sim () =
  let e = Engine.create () in
  let lanes = Array.init diff_lanes (fun _ -> Engine.lane e) in
  {
    now = (fun () -> Engine.now e);
    schedule = Engine.schedule e;
    schedule_at = (fun at f -> Engine.schedule_at e at f);
    cancel = Engine.cancel;
    schedule_lane = (fun l at f -> Engine.schedule_lane lanes.(l) at f);
    clear_lane = (fun l -> Engine.clear_lane lanes.(l));
    lane_length = (fun l -> Engine.lane_length lanes.(l));
    pending = (fun () -> Engine.pending e);
    step = (fun () -> Engine.step e);
    run_until = (fun until -> Engine.run ~until e);
  }

let oracle_sim () =
  let o = Oracle.create diff_lanes in
  {
    now = (fun () -> o.Oracle.clock);
    schedule = (fun d f -> Oracle.schedule_at o (o.Oracle.clock + d) f);
    schedule_at = Oracle.schedule_at o;
    cancel = Oracle.cancel o;
    schedule_lane = Oracle.schedule_lane o;
    clear_lane = Oracle.clear_lane o;
    lane_length = (fun l -> o.Oracle.counts.(l));
    pending = (fun () -> Oracle.pending o);
    step = (fun () -> Oracle.step_until o max_int);
    run_until =
      (fun until ->
        while Oracle.step_until o until do
          ()
        done;
        o.Oracle.clock <- max o.Oracle.clock until);
  }

(* What a thunk does when it fires. *)
type deed =
  | Nothing
  | Kill of int  (** cancel the event with this id (mod the count) *)
  | Later of int * deed  (** schedule a timer [d] from now *)
  | Later_lane of int * int * deed  (** schedule on lane [l], [d] past its last *)
  | Wipe of int  (** clear a lane *)
  | Both of deed * deed

type script_op =
  | Timer of int * deed  (** [schedule] [d] from now *)
  | Timer_at of int * deed  (** [schedule_at] now + [d] *)
  | On_lane of int * int * deed
  | Cancel_id of int
  | Clear_id of int
  | Step_once
  | Run_for of int  (** [run ~until:(now + d)] *)

let gen_script =
  QCheck2.Gen.(
    let lane = int_range 0 (diff_lanes - 1) and d = int_range 0 2 in
    let deed =
      fix
        (fun self depth ->
          let leaf = [ (3, pure Nothing); (2, map (fun k -> Kill k) (int_range 0 63)); (1, map (fun l -> Wipe l) lane) ] in
          if depth = 0 then frequency leaf
          else
            frequency
              (leaf
              @ [
                  (2, map2 (fun d k -> Later (d, k)) d (self (depth - 1)));
                  (3, map3 (fun l d k -> Later_lane (l, d, k)) lane d (self (depth - 1)));
                  (1, map2 (fun a b -> Both (a, b)) (self (depth - 1)) (self (depth - 1)));
                ]))
        2
    in
    let op =
      frequency
        [
          (3, map2 (fun d k -> Timer (d, k)) d deed);
          (2, map2 (fun d k -> Timer_at (d, k)) d deed);
          (6, map3 (fun l d k -> On_lane (l, d, k)) lane d deed);
          (2, map (fun k -> Cancel_id k) (int_range 0 63));
          (1, map (fun l -> Clear_id l) lane);
          (5, pure Step_once);
          (1, map (fun d -> Run_for d) (int_range 0 3));
        ]
    in
    list_size (int_range 1 150) op)

let rec print_deed = function
  | Nothing -> "-"
  | Kill k -> Printf.sprintf "kill %d" k
  | Later (d, k) -> Printf.sprintf "later +%d (%s)" d (print_deed k)
  | Later_lane (l, d, k) -> Printf.sprintf "lane %d +%d (%s)" l d (print_deed k)
  | Wipe l -> Printf.sprintf "wipe %d" l
  | Both (a, b) -> Printf.sprintf "%s & %s" (print_deed a) (print_deed b)

let print_script_op = function
  | Timer (d, k) -> Printf.sprintf "Timer(+%d, %s)" d (print_deed k)
  | Timer_at (d, k) -> Printf.sprintf "Timer_at(+%d, %s)" d (print_deed k)
  | On_lane (l, d, k) -> Printf.sprintf "On_lane(%d, +%d, %s)" l d (print_deed k)
  | Cancel_id k -> Printf.sprintf "Cancel %d" k
  | Clear_id l -> Printf.sprintf "Clear %d" l
  | Step_once -> "Step"
  | Run_for d -> Printf.sprintf "Run_for %d" d

(* Run a script and return what an observer sees, newest first: each
   firing (id, clock), each clear's count, and after every operation
   the clock, [pending] and every [lane_length]. Lane times are [d]
   past the later of the clock and the lane's last time, tracked here
   the same way on both sides. *)
let observe (sim : 'h sim) script =
  let seen = ref [] in
  let handles = ref [||] in
  let last = Array.make diff_lanes 0 in
  let note x = seen := x :: !seen in
  let snapshot () =
    note (sim.now () :: sim.pending () :: List.init diff_lanes sim.lane_length)
  in
  let rec act = function
    | Nothing -> ()
    | Kill k -> kill k
    | Later (d, k) -> add (`Delay d) k
    | Later_lane (l, d, k) -> add (`Lane (l, d)) k
    | Wipe l -> wipe l
    | Both (a, b) ->
        act a;
        act b
  and kill k =
    let n = Array.length !handles in
    if n > 0 then Option.iter sim.cancel !handles.(k mod n)
  and wipe l =
    note [ -1; l; sim.clear_lane l ];
    last.(l) <- 0
  and add where deed =
    let id = Array.length !handles in
    let thunk () =
      note [ -2; id; sim.now () ];
      act deed
    in
    let handle =
      match where with
      | `Delay d -> Some (sim.schedule d thunk)
      | `At at -> Some (sim.schedule_at at thunk)
      | `Lane (l, d) ->
          let at = max (sim.now ()) last.(l) + d in
          last.(l) <- at;
          sim.schedule_lane l at thunk;
          None
    in
    handles := Array.append !handles [| handle |]
  in
  List.iter
    (fun op ->
      (match op with
      | Timer (d, k) -> add (`Delay d) k
      | Timer_at (d, k) -> add (`At (sim.now () + d)) k
      | On_lane (l, d, k) -> add (`Lane (l, d)) k
      | Cancel_id k -> kill k
      | Clear_id l -> wipe l
      | Step_once -> note [ -3; Bool.to_int (sim.step ()) ]
      | Run_for d -> sim.run_until (sim.now () + d));
      snapshot ())
    script;
  while sim.step () do
    snapshot ()
  done;
  snapshot ();
  !seen

let test_engine_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"engine matches the single-queue engine"
       ~print:(fun ops -> String.concat "; " (List.map print_script_op ops))
       gen_script
       (fun script -> observe (engine_sim ()) script = observe (oracle_sim ()) script))

let test_engine_cancelled_thunk_collectable () =
  (* A cancelled event leaves the queue: nothing in the engine keeps its
     thunk, or what the thunk captures, reachable. The same holds for a
     fired one, and for lane events fired or cleared. *)
  let e = Engine.create () in
  let collected = ref 0 in
  let thunk delay =
    let captured = ref delay in
    Gc.finalise (fun _ -> incr collected) captured;
    fun () -> incr captured
  in
  let arm delay = Engine.schedule e delay (thunk delay) in
  Engine.cancel (arm 1_000_000);
  ignore (arm 10 : Engine.handle);
  let fired = Engine.lane e and cleared = Engine.lane e in
  Engine.schedule_lane fired 20 (thunk 20);
  Engine.schedule_lane fired 30 (thunk 30);
  Engine.schedule_lane cleared 3_000_000 (thunk 3_000_000);
  Engine.schedule_lane cleared 4_000_000 (thunk 4_000_000);
  ignore (Engine.schedule e 2_000_000 ignore : Engine.handle);
  Engine.run ~until:100 e;
  Alcotest.(check int) "two lane events cleared" 2 (Engine.clear_lane cleared);
  Gc.full_major ();
  Alcotest.(check int) "cancelled, fired and cleared thunks collected" 6 !collected;
  Alcotest.(check int) "later event still pending" 1 (Engine.pending e)

let test_engine_lane_rejects_earlier_time () =
  let e = Engine.create () in
  let l = Engine.lane e in
  Engine.schedule_lane l 50 ignore;
  Engine.schedule_lane l 50 ignore;
  Alcotest.check_raises "earlier than the lane's last"
    (Invalid_argument "Engine.schedule_lane: time earlier than the lane's last")
    (fun () -> Engine.schedule_lane l 49 ignore);
  Alcotest.(check int) "rejected event not queued" 2 (Engine.pending e);
  ignore (Engine.clear_lane l : int);
  Engine.schedule_lane l 10 ignore;
  Alcotest.(check int) "a cleared lane starts afresh" 1 (Engine.pending e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref [] in
  ignore
    (Engine.schedule e 10 (fun () ->
         hits := Engine.now e :: !hits;
         ignore (Engine.schedule e 5 (fun () -> hits := Engine.now e :: !hits))));
  Engine.run e;
  Alcotest.(check (list int)) "nested event times" [ 10; 15 ] (List.rev !hits)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_weighted () =
  let rng = Rng.create 99 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.weighted rng [ (25, "tcp"); (10, "udp"); (65, "rest") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check bool) "tcp ~ 25%" true (abs (get "tcp" - 2500) < 300);
  Alcotest.(check bool) "udp ~ 10%" true (abs (get "udp" - 1000) < 250);
  Alcotest.(check bool) "rest ~ 65%" true (abs (get "rest" - 6500) < 400)

let test_rng_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_time_conversions () =
  Alcotest.(check int) "1 second" Time.cycles_per_second (Time.of_seconds 1.0);
  Alcotest.(check int) "1 us" 1900 (Time.of_micros 1.0);
  let close a b = abs_float (a -. b) < 1e-9 in
  Alcotest.(check bool) "roundtrip" true
    (close (Time.to_seconds (Time.of_seconds 3.25)) 3.25)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 5;
  Stats.set_max s "m" 3;
  Stats.set_max s "m" 9;
  Stats.set_max s "m" 4;
  Alcotest.(check int) "incr" 2 (Stats.get s "a");
  Alcotest.(check int) "add" 5 (Stats.get s "b");
  Alcotest.(check int) "max" 9 (Stats.get s "m");
  Alcotest.(check int) "untouched" 0 (Stats.get s "zzz");
  Alcotest.(check (list (pair string int)))
    "counters sorted" [ ("a", 2); ("b", 5); ("m", 9) ] (Stats.counters s)

let test_stats_samples () =
  let s = Stats.create () in
  List.iter (Stats.observe s "lat") [ 1.0; 2.0; 3.0; 4.0 ];
  (match Stats.mean s "lat" with
  | Some m -> Alcotest.(check (float 1e-9)) "mean" 2.5 m
  | None -> Alcotest.fail "expected mean");
  Alcotest.(check int) "count" 4 (Stats.count s "lat");
  Alcotest.(check bool) "no samples" true (Stats.mean s "none" = None)

let test_series_binning () =
  let bin = Time.of_seconds 0.1 in
  let s = Series.create ~bin_width:bin in
  Series.add s 0 100;
  Series.add s (bin - 1) 50;
  Series.add s bin 10;
  Series.add s (3 * bin) 7;
  let bins = Series.bins s () in
  Alcotest.(check int) "bin count" 4 (Array.length bins);
  Alcotest.(check int) "bin 0 sum" 150 (snd bins.(0));
  Alcotest.(check int) "bin 1 sum" 10 (snd bins.(1));
  Alcotest.(check int) "bin 2 empty" 0 (snd bins.(2));
  Alcotest.(check int) "bin 3 sum" 7 (snd bins.(3))

let test_series_mbps () =
  let bin = Time.of_seconds 0.1 in
  let s = Series.create ~bin_width:bin in
  (* 1 MB in one 100ms bin = 80 Mbps. *)
  Series.add s 10 1_000_000;
  let m = Series.mbps s () in
  Alcotest.(check (float 0.5)) "mbps" 80.0 (snd m.(0))

let test_stats_percentile () =
  let st = Stats.create () in
  (* Unsorted on purpose: percentile sorts on demand. *)
  List.iter (Stats.observe st "lat") [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let p x =
    match Stats.percentile st "lat" x with
    | Some v -> v
    | None -> Alcotest.fail "expected samples"
  in
  Alcotest.(check (float 1e-9)) "p0 is the minimum" 1.0 (p 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" 5.0 (p 100.0);
  Alcotest.(check (float 1e-9)) "median" 3.0 (p 50.0);
  Alcotest.(check (float 1e-9)) "clamped above" 5.0 (p 150.0);
  Alcotest.(check (float 1e-9)) "clamped below" 1.0 (p (-3.0));
  Alcotest.(check (option (float 1e-9))) "no samples" None
    (Stats.percentile st "other" 50.0)

let test_stats_percentile_single_sample () =
  let st = Stats.create () in
  Stats.observe st "one" 7.5;
  List.iter
    (fun p ->
      Alcotest.(check (option (float 1e-9))) "single sample at any p"
        (Some 7.5)
        (Stats.percentile st "one" p))
    [ 0.0; 33.3; 50.0; 99.9; 100.0 ]

(* A deterministic pseudo-random stream (LCG) — no wall-clock seed, no
   Random state shared with the engine. *)
let lcg_stream n =
  let s = ref 123456789 in
  Array.init n (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      1.0 +. float_of_int (!s mod 1_000_000))

let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let test_hist_agrees_with_exact_percentiles () =
  (* The histogram trades a sort per query for bucketed values: every
     quantile must land within the documented 1/64 of the exact
     sorted-series answer, across three orders of magnitude. *)
  let samples = lcg_stream 50_000 in
  let h = Newt_sim.Stats.Hist.create () in
  Array.iter (Newt_sim.Stats.Hist.record h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  Alcotest.(check int) "count" 50_000 (Newt_sim.Stats.Hist.count h);
  List.iter
    (fun p ->
      let exact = exact_percentile sorted p in
      let approx =
        match Newt_sim.Stats.Hist.percentile h p with
        | Some v -> v
        | None -> Alcotest.fail "expected samples"
      in
      Alcotest.(check bool)
        (Printf.sprintf "p%.1f within 1/64 (exact %.0f, hist %.0f)" p exact
           approx)
        true
        (abs_float (approx -. exact) <= exact /. 32.0))
    [ 1.0; 25.0; 50.0; 90.0; 99.0; 99.9; 99.99 ];
  (* The extremes are exact, not bucket edges. *)
  Alcotest.(check (option (float 1e-9))) "p0 is the true minimum"
    (Some sorted.(0))
    (Newt_sim.Stats.Hist.percentile h 0.0);
  Alcotest.(check (option (float 1e-9))) "p100 is the true maximum"
    (Some sorted.(49_999))
    (Newt_sim.Stats.Hist.percentile h 100.0)

let test_hist_merge_adds_counts () =
  let h1 = Newt_sim.Stats.Hist.create () in
  let h2 = Newt_sim.Stats.Hist.create () in
  for i = 1 to 1000 do
    Newt_sim.Stats.Hist.record h1 (float_of_int i)
  done;
  for i = 1001 to 2000 do
    Newt_sim.Stats.Hist.record h2 (float_of_int i)
  done;
  Newt_sim.Stats.Hist.merge ~into:h1 h2;
  Alcotest.(check int) "merged count" 2000 (Newt_sim.Stats.Hist.count h1);
  let p50 = Option.get (Newt_sim.Stats.Hist.percentile h1 50.0) in
  Alcotest.(check bool)
    (Printf.sprintf "merged median near 1000 (got %.0f)" p50)
    true
    (abs_float (p50 -. 1000.0) <= 1000.0 /. 32.0);
  Alcotest.(check (option (float 1e-9))) "merged max" (Some 2000.0)
    (Newt_sim.Stats.Hist.percentile h1 100.0)

let test_stats_series_migrates_to_hist () =
  (* Past the exact threshold a named series silently becomes a
     histogram: same API, same answers (to bucket precision), no sort
     per query on a big series. *)
  let st = Stats.create () in
  for i = 1 to 5000 do
    Stats.observe st "lat" (float_of_int i)
  done;
  Alcotest.(check int) "count unaffected by migration" 5000
    (Stats.count st "lat");
  let p50 = Option.get (Stats.percentile st "lat" 50.0) in
  Alcotest.(check bool)
    (Printf.sprintf "median within 1/64 after migration (got %.0f)" p50)
    true
    (abs_float (p50 -. 2500.0) <= 2500.0 /. 32.0);
  Alcotest.(check (option (float 1e-9))) "max exact" (Some 5000.0)
    (Stats.percentile st "lat" 100.0);
  Alcotest.(check (option (float 1e-9))) "min exact" (Some 1.0)
    (Stats.percentile st "lat" 0.0)

let test_trace_bounded () =
  let t = Newt_sim.Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Newt_sim.Trace.record t ~at:i ~subsystem:"x" (string_of_int i)
  done;
  let es = Newt_sim.Trace.entries t in
  Alcotest.(check int) "bounded" 3 (List.length es);
  Alcotest.(check string) "oldest kept is 3" "3"
    (match es with e :: _ -> e.Newt_sim.Trace.message | [] -> "?")

(* Fifo against Stdlib.Queue: the same values in the same order through
   growth and wrap-around, and a popped or cleared value is not kept
   reachable (except the first one pushed, the ring's filler). *)
type fifo_op = Push | Pop | Peek | Clear

let fifo_matches_queue ops =
  let f = Fifo.create () and q = Queue.create () in
  let values = Weak.create (List.length ops) in
  let ok = ref true in
  let expect b = if not b then ok := false in
  List.iteri
    (fun k op ->
      (match op with
      | Push ->
          let v = ref k in
          Weak.set values k (Some v);
          Fifo.push f v;
          Queue.push k q
      | Pop -> (
          let want = Queue.take_opt q in
          match Fifo.pop f with
          | v -> expect (Some !v = want)
          | exception Invalid_argument _ -> expect (want = None))
      | Peek -> (
          match Fifo.peek f with
          | v -> expect (Queue.peek_opt q = Some !v)
          | exception Invalid_argument _ -> expect (Queue.is_empty q))
      | Clear ->
          Fifo.clear f;
          Queue.clear q);
      expect (Fifo.length f = Queue.length q);
      expect (Fifo.is_empty f = Queue.is_empty q))
    ops;
  Gc.full_major ();
  let queued = List.of_seq (Queue.to_seq q) in
  let first = List.find_index (( = ) Push) ops in
  List.iteri
    (fun k _ ->
      if Weak.check values k && Some k <> first then expect (List.mem k queued))
    ops;
  ignore (Sys.opaque_identity f);
  !ok

let test_fifo_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"fifo matches a Stdlib.Queue"
       QCheck2.Gen.(
         list_size (int_range 1 200)
           (frequency [ (6, pure Push); (4, pure Pop); (1, pure Peek); (1, pure Clear) ]))
       fifo_matches_queue)

let suite =
  [
    ("eventq pops in time order", `Quick, test_eventq_order);
    ("eventq breaks ties FIFO", `Quick, test_eventq_fifo_ties);
    ("eventq random stress stays sorted", `Quick, test_eventq_many);
    ("engine runs events in order", `Quick, test_engine_runs_in_order);
    ("engine cancel suppresses events", `Quick, test_engine_cancel);
    ("engine run ~until stops the clock", `Quick, test_engine_until);
    ( "engine run ~until ignores cancelled events",
      `Quick,
      test_engine_until_skips_cancelled );
    ("engine run ~until leaves the clock at until", `Quick, test_engine_until_clock);
    test_engine_model;
    test_engine_differential;
    test_fifo_model;
    ( "engine cancelled and fired thunks are collectable",
      `Quick,
      test_engine_cancelled_thunk_collectable );
    ( "engine lane rejects a time earlier than its last",
      `Quick,
      test_engine_lane_rejects_earlier_time );
    ("engine nested scheduling", `Quick, test_engine_nested_schedule);
    ("rng is deterministic per seed", `Quick, test_rng_deterministic);
    ("rng split gives independent stream", `Quick, test_rng_split_independent);
    ("rng weighted respects weights", `Quick, test_rng_weighted);
    ("rng draws stay in bounds", `Quick, test_rng_bounds);
    ("time unit conversions", `Quick, test_time_conversions);
    ("stats counters", `Quick, test_stats_counters);
    ("stats distributions", `Quick, test_stats_samples);
    ("stats percentile bounds and clamping", `Quick, test_stats_percentile);
    ("stats percentile single sample", `Quick, test_stats_percentile_single_sample);
    ( "hist percentiles agree with exact sort",
      `Quick,
      test_hist_agrees_with_exact_percentiles );
    ("hist merge adds shard counts", `Quick, test_hist_merge_adds_counts);
    ( "stats series migrates to hist past the threshold",
      `Quick,
      test_stats_series_migrates_to_hist );
    ("series bins by time", `Quick, test_series_binning);
    ("series converts to Mbps", `Quick, test_series_mbps);
    ("trace log is bounded", `Quick, test_trace_bounded);
  ]
