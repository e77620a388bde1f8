type t = {
  cap : int;
  mutable data : Bytes.t;
      (* Resident storage: empty until the first push, then doubled on
         demand, never beyond [cap]. *)
  mutable head : int; (* read position *)
  mutable len : int;
}

let create ~capacity =
  assert (capacity > 0);
  { cap = capacity; data = Bytes.empty; head = 0; len = 0 }

let capacity t = t.cap
let resident t = Bytes.length t.data
let length t = t.len
let available t = t.cap - t.len
let is_empty t = t.len = 0

(* Make room for [need] stored bytes, unwrapping the contents to the
   front of the new storage. *)
let grow t need =
  let size = Bytes.length t.data in
  if need > size then begin
    let rec double n = if n >= need then n else double (2 * n) in
    let data = Bytes.create (min t.cap (if size = 0 then need else double size)) in
    let first = min t.len (size - t.head) in
    Bytes.blit t.data t.head data 0 first;
    Bytes.blit t.data 0 data first (t.len - first);
    t.data <- data;
    t.head <- 0
  end

let push t src ~off ~len =
  assert (off >= 0 && len >= 0 && off + len <= Bytes.length src);
  let n = min len (available t) in
  if n > 0 then begin
    grow t (t.len + n);
    let size = Bytes.length t.data in
    let tail = (t.head + t.len) mod size in
    let first = min n (size - tail) in
    Bytes.blit src off t.data tail first;
    Bytes.blit src (off + first) t.data 0 (n - first);
    t.len <- t.len + n
  end;
  n

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Bytebuf.peek";
  let out = Bytes.create len in
  if len > 0 then begin
    let size = Bytes.length t.data in
    let start = (t.head + off) mod size in
    let first = min len (size - start) in
    Bytes.blit t.data start out 0 first;
    Bytes.blit t.data 0 out first (len - first)
  end;
  out

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Bytebuf.drop";
  if n > 0 then t.head <- (t.head + n) mod Bytes.length t.data;
  t.len <- t.len - n

let pop t ~max =
  let n = min max t.len in
  let out = peek t ~off:0 ~len:n in
  drop t n;
  out

let clear t =
  t.head <- 0;
  t.len <- 0
