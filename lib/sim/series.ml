type t = {
  width : Time.cycles;
  table : (int, int ref) Hashtbl.t;
  mutable last_bin : int;
}

let create ~bin_width =
  assert (bin_width > 0);
  { width = bin_width; table = Hashtbl.create 256; last_bin = 0 }

let add s at v =
  let bin = at / s.width in
  if bin > s.last_bin then s.last_bin <- bin;
  match Hashtbl.find_opt s.table bin with
  | Some r -> r := !r + v
  | None -> Hashtbl.add s.table bin (ref v)

let bins s ?upto () =
  let last = match upto with Some c -> c / s.width | None -> s.last_bin in
  Array.init (last + 1) (fun i ->
      let v = match Hashtbl.find_opt s.table i with Some r -> !r | None -> 0 in
      (Time.to_seconds (i * s.width), v))

let mbps s ?upto () =
  let per_bin = bins s ?upto () in
  let bin_seconds = Time.to_seconds s.width in
  Array.map
    (fun (t, bytes) -> (t, float_of_int bytes *. 8.0 /. bin_seconds /. 1e6))
    per_bin
