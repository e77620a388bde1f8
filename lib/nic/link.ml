module Engine = Newt_sim.Engine
module Time = Newt_sim.Time

type side = Left | Right

let other = function Left -> Right | Right -> Left

type direction = {
  mutable busy_until : Time.cycles;
  mutable tx_frames : int;
  mutable receiver : Bytes.t -> unit;
  wire : Engine.lane;  (* the frames in flight, delivered in FIFO order *)
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
  mutable bytes_carried : int;
}

let create engine ?(bandwidth_bps = 1_000_000_000) ?propagation ?(queue_frames = 256) () =
  let propagation =
    match propagation with Some p -> p | None -> Time.of_micros 2.0
  in
  let mk () =
    {
      busy_until = 0;
      tx_frames = 0;
      receiver = (fun _ -> ());
      wire = Engine.lane engine;
    }
  in
  {
    engine;
    cycles_per_byte =
      float_of_int Time.cycles_per_second *. 8.0 /. float_of_int bandwidth_bps;
    propagation;
    queue_frames;
    left_to_right = mk ();
    right_to_left = mk ();
    up = true;
    taps = [];
    dropped = 0;
    bytes_carried = 0;
  }

let dir t = function Left -> t.left_to_right | Right -> t.right_to_left

let attach t side receiver = (dir t (other side)).receiver <- receiver
(* [attach t Left f]: Left's receive callback serves the Right->Left
   direction. *)

let transmit t ~from frame =
  if not t.up then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let d = dir t from in
    if Engine.lane_length d.wire >= t.queue_frames then begin
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
      (* Delivery times never decrease: [busy_until] only grows while
         the link is up, and going down empties the lane. *)
      Engine.schedule_lane d.wire (done_at + t.propagation) (fun () ->
          d.tx_frames <- d.tx_frames + 1;
          t.bytes_carried <- t.bytes_carried + len;
          List.iter (fun tap -> tap ~at:(Engine.now t.engine) ~dir:from frame) t.taps;
          d.receiver frame);
      true
    end
  end

let tap t f = t.taps <- t.taps @ [ f ]

let set_up t up =
  if t.up && not up then begin
    let now = Engine.now t.engine in
    let flush d =
      t.dropped <- t.dropped + Engine.clear_lane d.wire;
      d.busy_until <- now
    in
    flush t.left_to_right;
    flush t.right_to_left
  end;
  t.up <- up

let is_up t = t.up
let tx_frames t ~from = (dir t from).tx_frames
let dropped t = t.dropped
let bytes_carried t = t.bytes_carried
