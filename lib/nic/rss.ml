module Addr = Newt_net.Addr

type t = {
  key : int array;  (* secret key bytes; 96 input bits + 32 window bits *)
  nqueues : int;
  mutable table : int array;
  mutable lut : int array;
      (* [lut.(256 * b + v)]: the hash contribution of value [v] in
         input byte [b]; empty until the first [hash]. *)
}

(* A deterministic key stream: xorshift over the seed. Quality only has
   to be "spreads real port numbers around", not cryptographic. *)
let gen_key ~seed ~len =
  let s = ref (0x9E3779B9 lxor ((seed + 1) * 0x01000193)) in
  Array.init len (fun _ ->
      let x = !s in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      s := x land 0x3FFFFFFFFFFFFFF;
      !s land 0xff)

let create ?(seed = 0x5ca1e) ~queues ?(buckets = 128) () =
  if queues <= 0 then invalid_arg "Rss.create: queues must be positive";
  if buckets <= 0 then invalid_arg "Rss.create: buckets must be positive";
  {
    key = gen_key ~seed ~len:16;
    nqueues = queues;
    table = Array.init buckets (fun i -> i mod queues);
    lut = [||];
  }

let queues t = t.nqueues
let buckets t = Array.length t.table

let ip_int a = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFFFFFF

let input_bytes = 12

(* The Toeplitz construction XORs in, for every set bit [j] of the
   input, the 32-bit window of the key starting at bit [j]. That is
   linear in the input, so each input byte contributes independently:
   tabulate the 256 contributions of every byte position once. The
   windows slide one key bit at a time; each byte's entries double up
   from its lowest bit. *)
let build_lut key =
  let key_bit j = (key.(j / 8) lsr (7 - (j mod 8))) land 1 in
  let nbits = 8 * input_bytes in
  let windows = Array.make nbits 0 in
  let w = ref 0 in
  for j = 0 to 31 do
    w := (!w lsl 1) lor key_bit j
  done;
  for i = 0 to nbits - 1 do
    windows.(i) <- !w;
    w := ((!w lsl 1) land 0xFFFFFFFF) lor key_bit (i + 32)
  done;
  let lut = Array.make (256 * input_bytes) 0 in
  for b = 0 to input_bytes - 1 do
    let base = 256 * b in
    for k = 0 to 7 do
      (* Bit [k] from the bottom of byte [b] is input bit [8b + 7 - k]. *)
      let m = 1 lsl k and wk = windows.((8 * b) + 7 - k) in
      for v = 0 to m - 1 do
        lut.(base + m + v) <- lut.(base + v) lxor wk
      done
    done
  done;
  lut

(* The input is (ip1, ip2, p1, p2) big-endian: 12 bytes. *)
let toeplitz lut ip1 p1 ip2 p2 =
  let byte b v = lut.((256 * b) + (v land 0xff)) in
  byte 0 (ip1 lsr 24) lxor byte 1 (ip1 lsr 16) lxor byte 2 (ip1 lsr 8) lxor byte 3 ip1
  lxor byte 4 (ip2 lsr 24) lxor byte 5 (ip2 lsr 16) lxor byte 6 (ip2 lsr 8)
  lxor byte 7 ip2 lxor byte 8 (p1 lsr 8) lxor byte 9 p1 lxor byte 10 (p2 lsr 8)
  lxor byte 11 p2

let hash t ~src ~sport ~dst ~dport =
  if Array.length t.lut = 0 then t.lut <- build_lut t.key;
  (* Canonical endpoint order makes the hash direction-agnostic. *)
  let ia = ip_int src and pa = sport land 0xffff in
  let ib = ip_int dst and pb = dport land 0xffff in
  if ia < ib || (ia = ib && pa <= pb) then toeplitz t.lut ia pa ib pb
  else toeplitz t.lut ib pb ia pa

let queue_of t ~src ~sport ~dst ~dport =
  t.table.(hash t ~src ~sport ~dst ~dport mod Array.length t.table)

let table t = Array.copy t.table

let set_table t table =
  if Array.length table <> Array.length t.table then
    invalid_arg "Rss.set_table: wrong table length";
  Array.iter
    (fun q ->
      if q < 0 || q >= t.nqueues then invalid_arg "Rss.set_table: queue out of range")
    table;
  t.table <- Array.copy table

let set_bucket t ~bucket ~queue =
  if bucket < 0 || bucket >= Array.length t.table then
    invalid_arg "Rss.set_bucket: bucket out of range";
  if queue < 0 || queue >= t.nqueues then
    invalid_arg "Rss.set_bucket: queue out of range";
  t.table.(bucket) <- queue
