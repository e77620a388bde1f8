type t = { pool : int; slot : int; off : int; len : int; gen : int }
type chain = t list

let chain_len chain = List.fold_left (fun acc p -> acc + p.len) 0 chain
