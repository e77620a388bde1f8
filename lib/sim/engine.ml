type handle = (unit -> unit) Eventq.entry

(* Two heaps share one clock and one sequence counter. [queue] holds
   the events of [schedule]/[schedule_at] (timers, interrupts, pacing),
   each an allocated, cancellable entry. Lane events never enter it:
   every non-empty lane sits once in the lane heap, an indexed min-heap
   of flat ints keyed by its head's (time, seq) ([lane_time],
   [lane_seq], with the lane itself in [lane_at]). Both heaps take
   their sequence numbers from [queue]'s ticket counter, so (time, seq)
   is one total order over every pending event, and [step] fires the
   earlier of the two minima. *)
type t = {
  mutable clock : Time.cycles;
  queue : (unit -> unit) Eventq.t;
  root_rng : Rng.t;
  mutable lane_events : int;  (* events queued on all lanes *)
  mutable lanes : int;  (* non-empty lanes, the lane heap's size *)
  mutable lane_time : int array;
  mutable lane_seq : int array;
  mutable lane_at : lane array;
  vacant : lane;  (* fills lane-heap slots past [lanes] *)
}

(* A lane is a ring of events in key order: [count] events from slot
   [first], each with its time and the sequence number reserved when
   it was scheduled. While [count > 0] the lane sits in its engine's
   lane heap at [slot], keyed by the event at [first]; an empty lane's
   [slot] is -1. *)
and lane = {
  engine : t;
  mutable times : int array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable first : int;
  mutable count : int;
  mutable last : Time.cycles;
  mutable slot : int;
}

let create ?(seed = 42) () =
  let rec t =
    {
      clock = 0;
      queue = Eventq.create ~dummy:ignore ();
      root_rng = Rng.create seed;
      lane_events = 0;
      lanes = 0;
      lane_time = [||];
      lane_seq = [||];
      lane_at = [||];
      vacant;
    }
  and vacant =
    {
      engine = t;
      times = [||];
      seqs = [||];
      thunks = [||];
      first = 0;
      count = 0;
      last = 0;
      slot = -1;
    }
  in
  t

let now t = t.clock
let rng t = t.root_rng

let schedule_at t at f =
  assert (at >= t.clock);
  Eventq.push t.queue at f

let schedule t delay f =
  assert (delay >= 0);
  schedule_at t (t.clock + delay) f

let cancel = Eventq.remove
let pending t = Eventq.length t.queue + t.lane_events

(* The lane heap, sifted as [Eventq]'s is: the moving key (at, seq) of
   lane [l] travels along a path of holes, each key it passes moves one
   level, and it is written once where it stops. Every index touched is
   a slot below [lanes], within capacity, so bounds checks are
   skipped. *)
let rec lane_hole_up (time : int array) (sq : int array) (lns : lane array)
    (at : int) (seq : int) i =
  if i = 0 then i
  else
    let p = (i - 1) lsr 1 in
    let pt = Array.unsafe_get time p in
    if at < pt || (at = pt && seq < Array.unsafe_get sq p) then begin
      let pl = Array.unsafe_get lns p in
      Array.unsafe_set time i pt;
      Array.unsafe_set sq i (Array.unsafe_get sq p);
      Array.unsafe_set lns i pl;
      pl.slot <- i;
      lane_hole_up time sq lns at seq p
    end
    else i

let rec lane_hole_down (time : int array) (sq : int array) (lns : lane array)
    size (at : int) (seq : int) i =
  let l = (2 * i) + 1 in
  if l >= size then i
  else
    let r = l + 1 in
    let c =
      if r < size then
        let rt = Array.unsafe_get time r and lt = Array.unsafe_get time l in
        if rt < lt || (rt = lt && Array.unsafe_get sq r < Array.unsafe_get sq l) then r
        else l
      else l
    in
    let ct = Array.unsafe_get time c in
    if ct < at || (ct = at && Array.unsafe_get sq c < seq) then begin
      let cl = Array.unsafe_get lns c in
      Array.unsafe_set time i ct;
      Array.unsafe_set sq i (Array.unsafe_get sq c);
      Array.unsafe_set lns i cl;
      cl.slot <- i;
      lane_hole_down time sq lns size at seq c
    end
    else i

let lane_place t i at seq l =
  Array.unsafe_set t.lane_time i at;
  Array.unsafe_set t.lane_seq i seq;
  Array.unsafe_set t.lane_at i l;
  l.slot <- i

let lane_sift_up t i at seq l =
  lane_place t (lane_hole_up t.lane_time t.lane_seq t.lane_at at seq i) at seq l

let lane_sift_down t i at seq l =
  lane_place t (lane_hole_down t.lane_time t.lane_seq t.lane_at t.lanes at seq i) at seq l

(* A lane that was empty enters the heap keyed by its only event. *)
let lane_insert t l at seq =
  let n = t.lanes in
  if n = Array.length t.lane_time then begin
    let cap = max 16 (2 * n) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.lane_time <- extend t.lane_time 0;
    t.lane_seq <- extend t.lane_seq 0;
    t.lane_at <- extend t.lane_at t.vacant
  end;
  t.lanes <- n + 1;
  lane_sift_up t n at seq l

(* Take the lane at slot [i] out of the heap: the last lane fills the
   hole and sifts whichever way it needs. *)
let lane_delete t i =
  t.lane_at.(i).slot <- -1;
  let last = t.lanes - 1 in
  t.lanes <- last;
  let moved = t.lane_at.(last) in
  t.lane_at.(last) <- t.vacant;
  if i < last then begin
    let at = t.lane_time.(last) and seq = t.lane_seq.(last) in
    let p = (i - 1) / 2 in
    if i > 0 && (at < t.lane_time.(p) || (at = t.lane_time.(p) && seq < t.lane_seq.(p)))
    then lane_sift_up t i at seq moved
    else lane_sift_down t i at seq moved
  end

let lane t =
  {
    engine = t;
    times = [||];
    seqs = [||];
    thunks = [||];
    first = 0;
    count = 0;
    last = 0;
    slot = -1;
  }

(* Only a full ring grows: unroll it from [first] into twice the room.
   The capacity stays a power of two, so a slot index is a mask. *)
let grow_lane l =
  let n = Array.length l.thunks in
  let unroll a fill =
    Array.init (max 16 (2 * n)) (fun k ->
        if k < n then a.((l.first + k) land (n - 1)) else fill)
  in
  l.times <- unroll l.times 0;
  l.seqs <- unroll l.seqs 0;
  l.thunks <- unroll l.thunks ignore;
  l.first <- 0

let schedule_lane l at f =
  if at < l.last then invalid_arg "Engine.schedule_lane: time earlier than the lane's last";
  let t = l.engine in
  assert (at >= t.clock);
  l.last <- at;
  let seq = Eventq.ticket t.queue in
  if l.count = Array.length l.thunks then grow_lane l;
  let i = (l.first + l.count) land (Array.length l.thunks - 1) in
  l.times.(i) <- at;
  l.seqs.(i) <- seq;
  l.thunks.(i) <- f;
  l.count <- l.count + 1;
  t.lane_events <- t.lane_events + 1;
  if l.count = 1 then lane_insert t l at seq

let lane_length l = l.count

let clear_lane l =
  let n = l.count in
  if l.slot >= 0 then lane_delete l.engine l.slot;
  l.engine.lane_events <- l.engine.lane_events - n;
  Array.fill l.thunks 0 (Array.length l.thunks) ignore;
  l.first <- 0;
  l.count <- 0;
  l.last <- 0;
  n

(* Fire the head of the lane at the root of the lane heap, due at
   [at]: take it off its ring, re-key the root by the lane's next event
   (or take the lane out of the heap if it is now empty), then run the
   head's thunk. *)
let fire_lane t at =
  let l = Array.unsafe_get t.lane_at 0 in
  let i = l.first in
  let f = l.thunks.(i) in
  l.thunks.(i) <- ignore;
  let first = (i + 1) land (Array.length l.thunks - 1) in
  l.first <- first;
  l.count <- l.count - 1;
  t.lane_events <- t.lane_events - 1;
  t.clock <- at;
  if l.count > 0 then lane_sift_down t 0 l.times.(first) l.seqs.(first) l
  else lane_delete t 0;
  f ()

(* Fire the earliest event if it is due no later than [stop]. *)
let step_until t stop =
  let q = t.queue in
  if t.lanes > 0
     && (Eventq.is_empty q
        ||
        let lt = Array.unsafe_get t.lane_time 0 and qt = Eventq.min_time q in
        lt < qt || (lt = qt && Array.unsafe_get t.lane_seq 0 < Eventq.min_seq q))
  then begin
    let at = Array.unsafe_get t.lane_time 0 in
    at <= stop
    && begin
      fire_lane t at;
      true
    end
  end
  else if Eventq.is_empty q then false
  else begin
    let at = Eventq.min_time q in
    at <= stop
    && begin
      t.clock <- at;
      (Eventq.pop q) ();
      true
    end
  end

let step t = step_until t max_int

let run ?until t =
  let stop = Option.value until ~default:max_int in
  while step_until t stop do
    ()
  done;
  if until <> None then t.clock <- max t.clock stop
