type handle = (unit -> unit) Eventq.entry

type t = {
  mutable clock : Time.cycles;
  queue : (unit -> unit) Eventq.t;
  root_rng : Rng.t;
  mutable backlog : int;  (* lane events queued behind their lane's head *)
}

(* A lane is a ring of events in key order: [count] events from slot
   [first], each with its time and the sequence number reserved when
   it was scheduled. Only the first one sits in the engine's heap, as
   [head] (whose value is [fire]); the rest count in [backlog]. Once
   the lane is empty, [head] is an entry that has left the heap, which
   [Eventq.remove] ignores. *)
type lane = {
  engine : t;
  mutable times : int array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable first : int;
  mutable count : int;
  mutable last : Time.cycles;
  mutable head : handle;
  fire : unit -> unit;
}

let create ?(seed = 42) () =
  {
    clock = 0;
    queue = Eventq.create ~dummy:ignore ();
    root_rng = Rng.create seed;
    backlog = 0;
  }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t at f =
  assert (at >= t.clock);
  Eventq.push t.queue at f

let schedule t delay f =
  assert (delay >= 0);
  schedule_at t (t.clock + delay) f

let cancel = Eventq.remove
let pending t = Eventq.length t.queue + t.backlog

let arm l =
  let i = l.first in
  l.head <- Eventq.push_ticket l.engine.queue l.times.(i) l.seqs.(i) l.fire

(* The head fired: take it off the ring, put the next event's key in
   the heap, then run the head's thunk. *)
let fire_head l =
  let i = l.first in
  let f = l.thunks.(i) in
  l.thunks.(i) <- ignore;
  l.first <- (i + 1) land (Array.length l.thunks - 1);
  l.count <- l.count - 1;
  if l.count > 0 then begin
    l.engine.backlog <- l.engine.backlog - 1;
    arm l
  end;
  f ()

let lane t =
  let rec l =
    {
      engine = t;
      times = [||];
      seqs = [||];
      thunks = [||];
      first = 0;
      count = 0;
      last = 0;
      head = Eventq.detached t.queue;
      fire = (fun () -> fire_head l);
    }
  in
  l

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
  assert (at >= l.engine.clock);
  l.last <- at;
  let seq = Eventq.ticket l.engine.queue in
  if l.count = Array.length l.thunks then grow_lane l;
  let i = (l.first + l.count) land (Array.length l.thunks - 1) in
  l.times.(i) <- at;
  l.seqs.(i) <- seq;
  l.thunks.(i) <- f;
  l.count <- l.count + 1;
  if l.count = 1 then arm l else l.engine.backlog <- l.engine.backlog + 1

let lane_length l = l.count

let clear_lane l =
  let n = l.count in
  Eventq.remove l.head;
  if n > 0 then l.engine.backlog <- l.engine.backlog - (n - 1);
  Array.fill l.thunks 0 (Array.length l.thunks) ignore;
  l.first <- 0;
  l.count <- 0;
  l.last <- 0;
  n

let step t =
  if Eventq.is_empty t.queue then false
  else begin
    t.clock <- Eventq.min_time t.queue;
    (Eventq.pop t.queue) ();
    true
  end

let run ?until t =
  let stop = Option.value until ~default:max_int in
  while (not (Eventq.is_empty t.queue)) && Eventq.min_time t.queue <= stop do
    ignore (step t : bool)
  done;
  if until <> None then t.clock <- max t.clock stop
