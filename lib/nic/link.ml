module Engine = Newt_sim.Engine
module Time = Newt_sim.Time

type side = Left | Right

let other = function Left -> Right | Right -> Left

(* A direction's queued frames wait in a ring of reusable buffers:
   [count] frames from slot [first], each [lens.(i)] bytes at the start
   of [bufs.(i)]. The ring grows with the occupancy high-water mark and
   never past [queue_frames] slots, and a slot's buffer is replaced
   only by a longer frame, so a frame on the wire holds no heap block
   of its own. The wire lane holds one [deliver] per queued frame, at
   its landing time. *)
type direction = {
  from : side;
  mutable busy_until : Time.cycles;
  mutable receiver : Bytes.t -> unit;
  wire : Engine.lane;
  mutable bufs : Bytes.t array;
  mutable lens : int array;
  mutable first : int;
  mutable count : int;
  mutable deliver : unit -> unit;
}

type t = {
  engine : Engine.t;
  cycles_per_byte : float;
  propagation : Time.cycles;
  queue_frames : int;
  left_to_right : direction;
  right_to_left : direction;
  mutable up : bool;
  mutable taps : (at:Time.cycles -> dir:side -> Bytes.t -> unit) list;
  mutable dropped : int;
}

(* The frame at the head has landed: take it off the ring and hand the
   receiver and each tap a copy of its own. *)
let deliver t d =
  let i = d.first in
  let len = d.lens.(i) in
  let buf = d.bufs.(i) in
  d.first <- (if i + 1 = Array.length d.bufs then 0 else i + 1);
  d.count <- d.count - 1;
  if t.taps <> [] then begin
    let at = Engine.now t.engine in
    List.iter (fun tap -> tap ~at ~dir:d.from (Bytes.sub buf 0 len)) t.taps
  end;
  d.receiver (Bytes.sub buf 0 len)

let create engine ?(bandwidth_bps = 1_000_000_000) ?propagation ?(queue_frames = 256) () =
  let propagation =
    match propagation with Some p -> p | None -> Time.of_micros 2.0
  in
  let mk from =
    {
      from;
      busy_until = 0;
      receiver = (fun _ -> ());
      wire = Engine.lane engine;
      bufs = [||];
      lens = [||];
      first = 0;
      count = 0;
      deliver = ignore;
    }
  in
  let t =
    {
      engine;
      cycles_per_byte =
        float_of_int Time.cycles_per_second *. 8.0 /. float_of_int bandwidth_bps;
      propagation;
      queue_frames;
      left_to_right = mk Left;
      right_to_left = mk Right;
      up = true;
      taps = [];
      dropped = 0;
    }
  in
  t.left_to_right.deliver <- (fun () -> deliver t t.left_to_right);
  t.right_to_left.deliver <- (fun () -> deliver t t.right_to_left);
  t

let dir t = function Left -> t.left_to_right | Right -> t.right_to_left

let attach t side receiver = (dir t (other side)).receiver <- receiver
(* [attach t Left f]: Left's receive callback serves the Right->Left
   direction. *)

(* Only a full ring grows: unroll it from [first] into twice the room
   (at least 16 slots), capped at [queue_frames]. *)
let grow t d =
  let n = Array.length d.bufs in
  let cap = min t.queue_frames (max 16 (2 * n)) in
  let unroll a fill =
    Array.init cap (fun k -> if k < n then a.((d.first + k) mod n) else fill)
  in
  d.bufs <- unroll d.bufs Bytes.empty;
  d.lens <- unroll d.lens 0;
  d.first <- 0

let enqueue t d frame =
  if d.count = Array.length d.bufs then grow t d;
  let i = d.first + d.count in
  let i = if i >= Array.length d.bufs then i - Array.length d.bufs else i in
  let len = Bytes.length frame in
  if Bytes.length d.bufs.(i) < len then d.bufs.(i) <- Bytes.create len;
  Bytes.blit frame 0 d.bufs.(i) 0 len;
  d.lens.(i) <- len;
  d.count <- d.count + 1

let transmit t ~from frame =
  if not t.up then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let d = dir t from in
    if d.count >= t.queue_frames then begin
      t.dropped <- t.dropped + 1;
      false
    end
    else begin
      let now = Engine.now t.engine in
      let len = Bytes.length frame in
      let serialization =
        int_of_float (ceil (float_of_int len *. t.cycles_per_byte))
      in
      let start = max now d.busy_until in
      let done_at = start + serialization in
      d.busy_until <- done_at;
      enqueue t d frame;
      (* Delivery times never decrease: [busy_until] only grows while
         the link is up, and going down empties the lane. *)
      Engine.schedule_lane d.wire (done_at + t.propagation) d.deliver;
      true
    end
  end

let tap t f = t.taps <- t.taps @ [ f ]

let set_up t up =
  if t.up && not up then begin
    let now = Engine.now t.engine in
    let flush d =
      t.dropped <- t.dropped + Engine.clear_lane d.wire;
      d.first <- 0;
      d.count <- 0;
      d.busy_until <- now
    in
    flush t.left_to_right;
    flush t.right_to_left
  end;
  t.up <- up

let is_up t = t.up
let dropped t = t.dropped
let ring_slots t ~from = Array.length (dir t from).bufs
