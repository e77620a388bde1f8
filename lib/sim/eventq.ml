(* An indexed binary min-heap. Slot [i] holds the key ([time.(i)],
   [seq.(i)]) and the entry [entries.(i)]; every queued entry records
   its slot, so [remove] can take it out of the middle. The keys sit in
   flat int arrays, so a sift compares unboxed ints and touches an
   entry only to move it. Slots at or past [size] hold [filler]. *)

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable entries : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  filler : 'a entry;
}

and 'a entry = { mutable slot : int; value : 'a; owner : 'a t }

let create ~dummy () =
  let rec t =
    { time = [||]; seq = [||]; entries = [||]; size = 0; next_seq = 0; filler }
  and filler = { slot = -1; value = dummy; owner = t } in
  t

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = max 16 (2 * t.size) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.entries <- extend t.entries t.filler

let before (at : int) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

let set t i at seq e =
  t.time.(i) <- at;
  t.seq.(i) <- seq;
  t.entries.(i) <- e;
  e.slot <- i

(* Move the key (at, seq) and entry [e] up from the hole at [i] until
   its parent is earlier, then put it there. *)
let rec sift_up t i at seq e =
  if i = 0 then set t i at seq e
  else
    let p = (i - 1) / 2 in
    if before at seq t.time.(p) t.seq.(p) then begin
      set t i t.time.(p) t.seq.(p) t.entries.(p);
      sift_up t p at seq e
    end
    else set t i at seq e

let rec sift_down t i at seq e =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i at seq e
  else
    let r = l + 1 in
    let c =
      if r < t.size && before t.time.(r) t.seq.(r) t.time.(l) t.seq.(l) then r
      else l
    in
    if before t.time.(c) t.seq.(c) at seq then begin
      set t i t.time.(c) t.seq.(c) t.entries.(c);
      sift_down t c at seq e
    end
    else set t i at seq e

let push t at value =
  let e = { slot = -1; value; owner = t } in
  if t.size = Array.length t.time then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at seq e;
  e

(* Empty slot [i]: the last entry fills the hole and sifts whichever
   way its key needs. *)
let delete t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let at = t.time.(last) and seq = t.seq.(last) and e = t.entries.(last) in
    t.entries.(last) <- t.filler;
    let p = (i - 1) / 2 in
    if i > 0 && before at seq t.time.(p) t.seq.(p) then
      sift_up t i at seq e
    else sift_down t i at seq e
  end
  else t.entries.(i) <- t.filler

let remove e =
  if e.slot >= 0 then begin
    delete e.owner e.slot;
    e.slot <- -1
  end

let min_time t =
  if t.size = 0 then invalid_arg "Eventq.min_time: empty queue";
  t.time.(0)

let pop t =
  if t.size = 0 then invalid_arg "Eventq.pop: empty queue";
  let e = t.entries.(0) in
  delete t 0;
  e.slot <- -1;
  e.value
