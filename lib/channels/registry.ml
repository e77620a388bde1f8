type t = { pools : (int, Pool.t) Hashtbl.t }

exception Unknown_pool of int

let create () = { pools = Hashtbl.create 16 }
let register t pool = Hashtbl.replace t.pools (Pool.id pool) pool
let unregister t ~id = Hashtbl.remove t.pools id

let find t id =
  match Hashtbl.find t.pools id with
  | p -> p
  | exception Not_found -> raise (Unknown_pool id)

let read t (ptr : Rich_ptr.t) = Pool.read (find t ptr.Rich_ptr.pool) ptr

let rec gather_at t chain dst off =
  match chain with
  | [] -> ()
  | (ptr : Rich_ptr.t) :: rest ->
      Pool.blit (find t ptr.Rich_ptr.pool) ptr ~dst ~dst_off:off;
      gather_at t rest dst (off + ptr.Rich_ptr.len)

let gather_into t chain dst = gather_at t chain dst 0

let gather t chain =
  let out = Bytes.create (Rich_ptr.chain_len chain) in
  gather_into t chain out;
  out

let chain_live t chain =
  List.for_all
    (fun (ptr : Rich_ptr.t) ->
      match Hashtbl.find_opt t.pools ptr.Rich_ptr.pool with
      | Some pool -> Pool.live pool ptr
      | None -> false)
    chain
