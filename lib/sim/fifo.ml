type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  mutable filler : 'a option;  (* the first value pushed *)
  mutable head : int;
  mutable len : int;
}

let initial_slots = 16
let create () = { buf = [||]; filler = None; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* Only a full ring grows: unroll it from [head] into twice the room.
   The size stays a power of two, so a slot index is a mask. *)
let grow t x =
  let filler =
    match t.filler with
    | Some f -> f
    | None ->
        t.filler <- Some x;
        x
  in
  let n = Array.length t.buf in
  let bigger = Array.make (max initial_slots (2 * n)) filler in
  for k = 0 to t.len - 1 do
    bigger.(k) <- t.buf.((t.head + k) land (n - 1))
  done;
  t.buf <- bigger;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t x;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Fifo.peek: empty";
  t.buf.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let i = t.head in
  let x = t.buf.(i) in
  (* A non-empty ring was grown, so it has its filler. *)
  (match t.filler with Some f -> t.buf.(i) <- f | None -> ());
  t.head <- (i + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let clear t =
  (match t.filler with
  | Some f -> Array.fill t.buf 0 (Array.length t.buf) f
  | None -> ());
  t.head <- 0;
  t.len <- 0
