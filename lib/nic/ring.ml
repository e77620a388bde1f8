type 'a t = {
  arr : 'a array;
  dummy : 'a;  (* written over every slot the driver gives back *)
  size : int;
  mutable posted : int;  (* driver wrote a descriptor *)
  mutable taken : int;  (* device consumed it *)
  mutable completed : int;  (* device finished it *)
  mutable reaped : int;  (* driver collected the completion *)
}

let create ~size ~dummy =
  assert (size > 0);
  { arr = Array.make size dummy; dummy; size; posted = 0; taken = 0; completed = 0; reaped = 0 }

let free_slots t = t.size - (t.posted - t.reaped)
let pending t = t.posted - t.taken
let completed_unreaped t = t.completed - t.reaped

let post t v =
  if free_slots t = 0 then false
  else begin
    t.arr.(t.posted mod t.size) <- v;
    t.posted <- t.posted + 1;
    true
  end

let device_take t =
  if t.taken >= t.posted then None
  else begin
    let v = t.arr.(t.taken mod t.size) in
    t.taken <- t.taken + 1;
    Some v
  end

let device_complete t =
  assert (t.completed < t.taken);
  t.completed <- t.completed + 1

let reap t =
  if t.completed <= t.reaped then None
  else begin
    (* Like an e1000 driver cleaning a descriptor: the reaped slot
       drops its reference, so a finished frame's buffers are not kept
       alive until the slot is posted again. *)
    let i = t.reaped mod t.size in
    let v = t.arr.(i) in
    t.arr.(i) <- t.dummy;
    t.reaped <- t.reaped + 1;
    Some v
  end

let clear t =
  let leftovers = ref [] in
  for i = t.posted - 1 downto t.reaped do
    leftovers := t.arr.(i mod t.size) :: !leftovers
  done;
  Array.fill t.arr 0 t.size t.dummy;
  t.posted <- 0;
  t.taken <- 0;
  t.completed <- 0;
  t.reaped <- 0;
  !leftovers
