type partial = int

let zero = 0

external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let fold16 x =
  let x = ref x in
  while !x lsr 16 <> 0 do
    x := (!x land 0xffff) + (!x lsr 16)
  done;
  !x

(* RFC 1071 §2(B)-(C): the ones'-complement sum is independent of byte
   order and may be taken over wider words with the carries folded in
   afterwards. The word loop sums unchecked native-order 64-bit loads as
   two 32-bit halves (each half is congruent, mod 0xffff, to the sum of
   its two 16-bit words). One step adds under 2^33 to a 63-bit
   accumulator, so the loop cannot overflow below 2^29 words (4 GB),
   far beyond any region we sum. The folded result is in native byte
   order; on a little-endian host a byte swap turns it into the
   big-endian sum (a swap multiplies by 256, and 256 * 256 = 1 mod
   0xffff). Fewer than 8 trailing bytes take the big-endian 16-bit
   steps, starting an even distance from [off], so pairs still line up
   with the region's start. *)
let add_bytes acc b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.add_bytes";
  let words = ref 0 in
  let i = ref off in
  let wstop = off + (len land lnot 7) in
  while !i < wstop do
    let w = unsafe_get64 b !i in
    words :=
      !words
      + (Int64.to_int w land 0xffff_ffff)
      + Int64.to_int (Int64.shift_right_logical w 32);
    i := !i + 8
  done;
  let folded = fold16 !words in
  let acc =
    ref
      (acc
      + if Sys.big_endian then folded
        else ((folded land 0xff) lsl 8) lor (folded lsr 8))
  in
  let stop = off + len - 1 in
  while !i < stop do
    acc :=
      !acc
      + (Char.code (Bytes.unsafe_get b !i) lsl 8)
      + Char.code (Bytes.unsafe_get b (!i + 1));
    i := !i + 2
  done;
  if len land 1 = 1 then
    acc := !acc + (Char.code (Bytes.unsafe_get b (off + len - 1)) lsl 8);
  !acc

let add_int16 acc v = acc + (v land 0xffff)

let fold acc = fold16 acc

let finish acc = lnot (fold16 acc) land 0xffff

let bytes b ~off ~len = finish (add_bytes zero b ~off ~len)

let valid b ~off ~len = bytes b ~off ~len = 0
