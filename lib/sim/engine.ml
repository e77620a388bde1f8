type handle = (unit -> unit) Eventq.entry

type t = {
  mutable clock : Time.cycles;
  queue : (unit -> unit) Eventq.t;
  root_rng : Rng.t;
}

let create ?(seed = 42) () =
  { clock = 0; queue = Eventq.create ~dummy:ignore (); root_rng = Rng.create seed }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t at f =
  assert (at >= t.clock);
  Eventq.push t.queue at f

let schedule t delay f =
  assert (delay >= 0);
  schedule_at t (t.clock + delay) f

let cancel = Eventq.remove
let pending t = Eventq.length t.queue

let step t =
  if Eventq.is_empty t.queue then false
  else begin
    t.clock <- Eventq.min_time t.queue;
    (Eventq.pop t.queue) ();
    true
  end

let run ?until ?(max_events = max_int) t =
  let stop = Option.value until ~default:max_int in
  let due () = (not (Eventq.is_empty t.queue)) && Eventq.min_time t.queue <= stop in
  let fired = ref 0 in
  while !fired < max_events && due () do
    ignore (step t : bool);
    incr fired
  done;
  if until <> None && not (due ()) then t.clock <- max t.clock stop
