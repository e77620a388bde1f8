module Engine = Newt_sim.Engine
module Time = Newt_sim.Time

type side = Left | Right

let other = function Left -> Right | Right -> Left

(* A direction's queued frames wait in a ring of reusable buffers:
   [count] frames from slot [first], the frame in slot [i] being all of
   [bufs.(i)]. The ring grows with the occupancy high-water mark and
   never past [queue_frames] slots. A slot keeps its buffer while the
   frames it carries have that buffer's length, so a frame on the wire
   holds no heap block of its own once a direction's frame sizes
   repeat. The wire lane holds one [deliver] per queued frame, at its
   landing time.

   A landed frame is lent to the receiver for the duration of its
   callback, not given: its slot is free again (a transmit inside the
   callback is accepted or refused exactly as after it), but [lent]
   names it, and a frame written into that slot during the callback
   gets a fresh buffer, so the receiver's bytes stay intact. *)
type direction = {
  from : side;
  mutable busy_until : Time.cycles;
  mutable receiver : Bytes.t -> unit;
  wire : Engine.lane;
  mutable bufs : Bytes.t array;
  mutable first : int;
  mutable count : int;
  mutable lent : int;  (* the slot lent to the running callback, or -1 *)
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

(* The frame at the head has landed: take it off the ring, hand each
   tap a copy of its own and lend the slot's buffer to the receiver. *)
let deliver t d =
  let i = d.first in
  let buf = d.bufs.(i) in
  d.first <- (if i + 1 = Array.length d.bufs then 0 else i + 1);
  d.count <- d.count - 1;
  if t.taps <> [] then begin
    let at = Engine.now t.engine in
    List.iter (fun tap -> tap ~at ~dir:d.from (Bytes.copy buf)) t.taps
  end;
  d.lent <- i;
  d.receiver buf;
  d.lent <- -1

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
      first = 0;
      count = 0;
      lent = -1;
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
   (at least 16 slots), capped at [queue_frames]. A full ring holds no
   lent buffer: the lent slot was written again before it filled. *)
let grow t d =
  let n = Array.length d.bufs in
  let cap = min t.queue_frames (max 16 (2 * n)) in
  d.bufs <-
    Array.init cap (fun k -> if k < n then d.bufs.((d.first + k) mod n) else Bytes.empty);
  d.first <- 0;
  d.lent <- -1

let accepting t d = t.up && d.count < t.queue_frames

let tail_index d =
  let i = d.first + d.count in
  if i >= Array.length d.bufs then i - Array.length d.bufs else i

(* The buffer of the slot the next frame takes: exactly [len] bytes,
   and held by no receiver. *)
let tail t d ~len =
  if d.count = Array.length d.bufs then grow t d;
  let i = tail_index d in
  if Bytes.length d.bufs.(i) <> len || i = d.lent then d.bufs.(i) <- Bytes.create len;
  d.bufs.(i)

(* Queue the frame written into the tail slot and schedule its
   landing. Delivery times never decrease: [busy_until] only grows
   while the link is up, and going down empties the lane. *)
let send t d =
  let len = Bytes.length d.bufs.(tail_index d) in
  let now = Engine.now t.engine in
  let serialization = int_of_float (ceil (float_of_int len *. t.cycles_per_byte)) in
  let done_at = max now d.busy_until + serialization in
  d.busy_until <- done_at;
  d.count <- d.count + 1;
  Engine.schedule_lane d.wire (done_at + t.propagation) d.deliver

let transmit t ~from frame =
  let d = dir t from in
  if not (accepting t d) then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let len = Bytes.length frame in
    Bytes.blit frame 0 (tail t d ~len) 0 len;
    send t d;
    true
  end

let accepts t ~from = accepting t (dir t from)

let slot t ~from ~len =
  let d = dir t from in
  if not (accepting t d) then invalid_arg "Link.slot: the link refuses frames";
  tail t d ~len

let commit t ~from = send t (dir t from)

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
