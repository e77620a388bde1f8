(* An indexed binary min-heap whose sifts move only ints. Each queued
   entry is stored once, at [entries.(id)], for its whole stay. Heap
   slot [i] holds the key ([time.(i)], [seq.(i)]) and the id [ids.(i)]
   of the entry it orders; [slot.(id)] records where that key sits, so
   [remove] can take an entry out of the middle. A sift compares and
   moves flat ints only: no level writes a boxed value.

   Free ids park in the slots at or past [size], so [ids] is always a
   permutation of [0, capacity) and needs no free list: [push] takes
   the id parked at [size], and a delete parks the freed id at the
   slot the heap gives up. [entries.(id)] is [filler] while [id] is
   free, so a popped or removed value is not kept reachable. *)

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable ids : int array;
  mutable slot : int array;
  mutable entries : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  filler : 'a entry;
}

and 'a entry = { id : int; value : 'a; owner : 'a t }

let create ~dummy () =
  let rec t =
    {
      time = [||];
      seq = [||];
      ids = [||];
      slot = [||];
      entries = [||];
      size = 0;
      next_seq = 0;
      filler;
    }
  and filler = { id = -1; value = dummy; owner = t } in
  t

let is_empty t = t.size = 0
let length t = t.size

(* Only a full heap grows, so the new ids are exactly the new slots. *)
let grow t =
  let old = Array.length t.time in
  let cap = max 16 (2 * old) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.ids <- extend t.ids 0;
  for id = old to cap - 1 do
    t.ids.(id) <- id
  done;
  t.slot <- extend t.slot 0;
  t.entries <- extend t.entries t.filler

(* The sifts carry the moving key (at, seq) of entry [id] along a path
   of holes, shifting each key they pass over by one level, and write
   it once where it stops. [hole_up] and [hole_down] return that slot.
   They take the arrays as arguments (a local closure would be
   allocated per sift), and every index they touch is a heap slot below
   [size] or a queued id, both within capacity, so they skip the bounds
   checks. *)
let rec hole_up (time : int array) (sq : int array) (ids : int array)
    (slot : int array) (at : int) (seq : int) i =
  if i = 0 then i
  else
    let p = (i - 1) lsr 1 in
    let pt = Array.unsafe_get time p in
    if at < pt || (at = pt && seq < Array.unsafe_get sq p) then begin
      let pid = Array.unsafe_get ids p in
      Array.unsafe_set time i pt;
      Array.unsafe_set sq i (Array.unsafe_get sq p);
      Array.unsafe_set ids i pid;
      Array.unsafe_set slot pid i;
      hole_up time sq ids slot at seq p
    end
    else i

let rec hole_down (time : int array) (sq : int array) (ids : int array)
    (slot : int array) size (at : int) (seq : int) i =
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
      let cid = Array.unsafe_get ids c in
      Array.unsafe_set time i ct;
      Array.unsafe_set sq i (Array.unsafe_get sq c);
      Array.unsafe_set ids i cid;
      Array.unsafe_set slot cid i;
      hole_down time sq ids slot size at seq c
    end
    else i

let place t i at seq id =
  Array.unsafe_set t.time i at;
  Array.unsafe_set t.seq i seq;
  Array.unsafe_set t.ids i id;
  Array.unsafe_set t.slot id i

let sift_up t i at seq id = place t (hole_up t.time t.seq t.ids t.slot at seq i) at seq id

let sift_down t i at seq id =
  place t (hole_down t.time t.seq t.ids t.slot t.size at seq i) at seq id

let ticket t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push t at value =
  let seq = ticket t in
  if t.size = Array.length t.time then grow t;
  let id = t.ids.(t.size) in
  let e = { id; value; owner = t } in
  t.entries.(id) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at seq id;
  e

(* Empty slot [i]: its entry's id is freed and parks at the slot the
   heap gives up; the last key fills the hole and sifts whichever way
   it needs. *)
let delete t i =
  let id = t.ids.(i) in
  t.entries.(id) <- t.filler;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let at = t.time.(last) and seq = t.seq.(last) and moved = t.ids.(last) in
    t.ids.(last) <- id;
    let p = (i - 1) / 2 in
    if i > 0 && (at < t.time.(p) || (at = t.time.(p) && seq < t.seq.(p))) then
      sift_up t i at seq moved
    else sift_down t i at seq moved
  end

let remove e =
  let t = e.owner in
  if e.id >= 0 && t.entries.(e.id) == e then delete t t.slot.(e.id)

let min_time t =
  if t.size = 0 then invalid_arg "Eventq.min_time: empty queue";
  t.time.(0)

let min_seq t =
  if t.size = 0 then invalid_arg "Eventq.min_seq: empty queue";
  t.seq.(0)

let pop t =
  if t.size = 0 then invalid_arg "Eventq.pop: empty queue";
  let e = t.entries.(t.ids.(0)) in
  delete t 0;
  e.value
