(* Streaming histogram: HDR-style log-linear buckets. The first
   [sub_count] buckets are exact (one per integer value); above that,
   each power-of-two range is subdivided into [sub_count] linear
   sub-buckets, so the relative quantization error is bounded by
   [1/sub_count] everywhere. Recording is O(1) — an index computation
   and an increment — and two histograms merge by adding their count
   arrays, which is what lets per-shard latency series aggregate
   without ever holding a sample list. *)
module Hist = struct
  let sub_bits = 6
  let sub_count = 1 lsl sub_bits (* 64: <= 1.6% relative error *)

  (* Values up to 2^62-ish: (62 - sub_bits + 1) octaves + the linear
     region. *)
  let n_buckets = ((62 - sub_bits + 1) * sub_count) + sub_count

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    {
      counts = Array.make n_buckets 0;
      total = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  (* Index of the bucket holding non-negative integer [v]. *)
  let index_of v =
    if v < sub_count then v
    else begin
      (* Position of the most significant bit. *)
      let exp = ref sub_bits and shifted = ref (v lsr sub_bits) in
      while !shifted > 1 do
        incr exp;
        shifted := !shifted lsr 1
      done;
      let half = !exp - sub_bits + 1 in
      let mantissa = (v lsr (!exp - sub_bits)) - sub_count in
      (half * sub_count) + mantissa
    end

  (* Largest value mapping to bucket [idx] — reporting the upper edge
     makes the approximation conservative for tail percentiles. *)
  let value_of idx =
    if idx < sub_count then float_of_int idx
    else
      let half = idx / sub_count and mantissa = idx mod sub_count in
      let lo = (sub_count + mantissa) lsl (half - 1) in
      float_of_int (lo + (1 lsl (half - 1)) - 1)

  let record t v =
    let v = if Float.is_nan v then 0.0 else v in
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    t.sum <- t.sum +. v;
    t.total <- t.total + 1;
    let i = if v <= 0.0 then 0 else index_of (int_of_float v) in
    let i = min i (n_buckets - 1) in
    t.counts.(i) <- t.counts.(i) + 1

  let count t = t.total
  let mean t = if t.total = 0 then None else Some (t.sum /. float_of_int t.total)

  let merge ~into src =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.total <- into.total + src.total;
    into.sum <- into.sum +. src.sum;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v

  let percentile t p =
    if t.total = 0 then None
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      if p <= 0.0 then Some t.min_v
      else if p >= 100.0 then Some t.max_v
      else begin
        (* The rank'th smallest recorded value, 1-based. *)
        let rank =
          max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.total)))
        in
        let seen = ref 0 and idx = ref 0 and found = ref None in
        while !found = None && !idx < n_buckets do
          seen := !seen + t.counts.(!idx);
          if !seen >= rank then found := Some !idx;
          incr idx
        done;
        match !found with
        | None -> Some t.max_v
        | Some i ->
            (* Clamp to the observed extremes: the bucket's upper edge
               can overshoot the true maximum. *)
            Some (Float.min t.max_v (Float.max t.min_v (value_of i)))
      end
    end
end

(* Distributions hold the exact sample list while small; past
   [exact_threshold] samples they migrate into a [Hist] and stay O(1)
   per observation — querying a percentile of a million-sample series
   must not sort a million floats. *)
let exact_threshold = 1024

type series = {
  mutable small : float list;  (* newest first; only while [hist = None] *)
  mutable n : int;
  mutable hist : Hist.t option;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  samples : (string, series) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; samples = Hashtbl.create 8 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter_ref t name)
let add t name n = counter_ref t name := !(counter_ref t name) + n

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_max t name v =
  let r = counter_ref t name in
  if v > !r then r := v

let series_ref t name =
  match Hashtbl.find_opt t.samples name with
  | Some s -> s
  | None ->
      let s = { small = []; n = 0; hist = None } in
      Hashtbl.add t.samples name s;
      s

let observe t name v =
  let s = series_ref t name in
  s.n <- s.n + 1;
  match s.hist with
  | Some h -> Hist.record h v
  | None ->
      s.small <- v :: s.small;
      if s.n > exact_threshold then begin
        let h = Hist.create () in
        List.iter (Hist.record h) s.small;
        s.small <- [];
        s.hist <- Some h
      end

let count t name =
  match Hashtbl.find_opt t.samples name with Some s -> s.n | None -> 0

let mean t name =
  match Hashtbl.find_opt t.samples name with
  | None | Some { n = 0; _ } -> None
  | Some { hist = Some h; _ } -> Hist.mean h
  | Some { small = xs; n; _ } ->
      let total = List.fold_left ( +. ) 0.0 xs in
      Some (total /. float_of_int n)

let percentile t name p =
  match Hashtbl.find_opt t.samples name with
  | None | Some { n = 0; _ } -> None
  | Some { hist = Some h; _ } -> Hist.percentile h p
  | Some { small = xs; n = _; _ } ->
      let arr = Array.of_list xs in
      (* Float.compare: a numeric, unboxed sort that also gives nan a
         total order (polymorphic compare boxes every element). *)
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let idx = int_of_float (p /. 100.0 *. float_of_int (n - 1)) in
      Some arr.(max 0 (min (n - 1) idx))

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
