type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let create seed = { state = mix64 (Int64.of_int seed) }

let split t = { state = next_int64 t }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so Int64.to_int (which truncates to OCaml's 63-bit
     ints) can never produce a negative value. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  assert (total > 0);
  let roll = int t total in
  let rec go acc = function
    | [] -> assert false
    | (w, v) :: rest -> if roll < acc + w then v else go (acc + w) rest
  in
  go 0 choices
