module Component = Newt_stack.Component
module Reincarnation = Newt_reliability.Reincarnation

type 'srv t = {
  set_name : string;
  comps : Component.t array;
  servers : 'srv array;
  mutable rs : Reincarnation.t option;
  mutable load_of : ('srv -> float) option;
}

let of_servers ~name ~comp servers =
  { set_name = name; comps = Array.map comp servers; servers; rs = None; load_of = None }

let size t = Array.length t.comps
let comp t i = t.comps.(i)
let srv t i = t.servers.(i)
let comps t = t.comps
let servers t = t.servers

let attach t rs = t.rs <- Some rs

let kill t i =
  match t.rs with
  | Some rs -> Reincarnation.kill rs t.comps.(i)
  | None -> invalid_arg (t.set_name ^ ": kill on an unsupervised replica set")

let restarts t i =
  match t.rs with Some rs -> Reincarnation.restarts_of rs t.comps.(i) | None -> 0

let set_load t f = t.load_of <- Some f

let loads t =
  match t.load_of with
  | Some f -> Array.map f t.servers
  | None -> Array.map (fun _ -> 0.) t.servers

type plane = {
  plane_name : string;
  members : int;
  member_loads : unit -> float array;
}

let plane t =
  { plane_name = t.set_name; members = size t; member_loads = (fun () -> loads t) }

let plane_imbalance p = Shard_map.imbalance ~loads:(p.member_loads ())

let projected_loads ~shards planes =
  let acc = Array.make (max shards 1) 0. in
  List.iter
    (fun p ->
      let loads = p.member_loads () in
      let m = Array.length loads in
      let total = Array.fold_left ( +. ) 0. loads in
      if m > 0 && total > 0. then
        Array.iteri
          (fun j l ->
            (* How many transport-shard buckets member [j] serves. *)
            let served = if j >= shards then 0 else (shards - j + m - 1) / m in
            if served > 0 then begin
              let per = l /. total /. float_of_int served in
              let i = ref j in
              while !i < shards do
                acc.(!i) <- acc.(!i) +. per;
                i := !i + m
              done
            end)
          loads)
    planes;
  acc
