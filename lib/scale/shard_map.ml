module Rss = Newt_nic.Rss

type t = { rss : Rss.t; mutable port_cursor : int }

let create ?seed ~shards () =
  if shards <= 0 then invalid_arg "Shard_map.create: shards must be positive";
  { rss = Rss.create ?seed ~queues:shards (); port_cursor = 0 }

let shards t = Rss.queues t.rss
let rss t = t.rss
let shard_of t ~src ~sport ~dst ~dport = Rss.queue_of t.rss ~src ~sport ~dst ~dport

let ephemeral_lo = 49152
let ephemeral_range = 65536 - ephemeral_lo

let port_for_shard t ?(in_use = fun _ -> false) ~shard ~src ~dst ~dst_port () =
  let start = t.port_cursor in
  let rec scan i =
    if i >= ephemeral_range then
      (* Every ephemeral port hashing to [shard] for this destination
         is already taken: a hard resource limit, not a retry case. *)
      Error `Exhausted
    else
      let sport = ephemeral_lo + ((start + i) mod ephemeral_range) in
      if
        shard_of t ~src ~sport ~dst ~dport:dst_port = shard
        && not (in_use sport)
      then begin
        t.port_cursor <- (start + i + 1) mod ephemeral_range;
        Ok sport
      end
      else scan (i + 1)
  in
  scan 0

let imbalance ~loads =
  let n = Array.length loads in
  if n = 0 then 1.0
  else begin
    let total = Array.fold_left ( +. ) 0.0 loads in
    if total <= 0.0 then 1.0
    else
      let mean = total /. float_of_int n in
      Array.fold_left Float.max 0.0 loads /. mean
  end

(* Greedy bucket reassignment. Expected per-shard load after a move is
   estimated by treating each bucket of a shard as carrying an equal
   slice of that shard's observed load. *)
let rebalance t ~loads =
  let n = shards t in
  if Array.length loads <> n then
    invalid_arg "Shard_map.rebalance: loads length must equal shards";
  let table = Rss.table t.rss in
  let buckets = Array.length table in
  let bucket_count = Array.make n 0 in
  Array.iter (fun q -> bucket_count.(q) <- bucket_count.(q) + 1) table;
  (* Per-bucket weight of shard q's current load. *)
  let weight q =
    if bucket_count.(q) = 0 then 0.0 else loads.(q) /. float_of_int bucket_count.(q)
  in
  (* Estimated load per shard, updated as buckets move. *)
  let est = Array.copy loads in
  let moved = ref 0 in
  let continue = ref true in
  while !continue && !moved < buckets do
    let hi = ref 0 and lo = ref 0 in
    for q = 1 to n - 1 do
      if est.(q) > est.(!hi) then hi := q;
      if est.(q) < est.(!lo) then lo := q
    done;
    let w = weight !hi in
    (* Moving one bucket helps only if the donor stays above the
       recipient's new level — otherwise we would oscillate. *)
    if !hi = !lo || w <= 0.0 || bucket_count.(!hi) <= 1
       || est.(!hi) -. w < est.(!lo) +. w
    then continue := false
    else begin
      (* Find one bucket of [hi] and hand it to [lo]. *)
      let b = ref (-1) in
      Array.iteri (fun i q -> if !b < 0 && q = !hi then b := i) table;
      if !b < 0 then continue := false
      else begin
        table.(!b) <- !lo;
        Rss.set_bucket t.rss ~bucket:!b ~queue:!lo;
        bucket_count.(!hi) <- bucket_count.(!hi) - 1;
        bucket_count.(!lo) <- bucket_count.(!lo) + 1;
        est.(!hi) <- est.(!hi) -. w;
        est.(!lo) <- est.(!lo) +. w;
        incr moved
      end
    end
  done;
  !moved
