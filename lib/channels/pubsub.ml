type publication = { key : string; creator : int; chan_id : int }

type event = [ `Published of publication | `Gone ]

type t = {
  (* Each stored publication remembers when it was (last) published, so
     replay can reproduce the order subscribers originally saw. *)
  published : (string, publication * int) Hashtbl.t;
  subscribers : (string, (event -> unit) list ref) Hashtbl.t;
  mutable prefix_subscribers : (string * (event -> unit)) list;
  mutable next_seq : int;
}

let create () =
  {
    published = Hashtbl.create 32;
    subscribers = Hashtbl.create 32;
    prefix_subscribers = [];
    next_seq = 0;
  }

let subs t key =
  match Hashtbl.find_opt t.subscribers key with
  | Some l -> !l
  | None -> []

let prefix_subs t key =
  List.filter_map
    (fun (prefix, f) -> if String.starts_with ~prefix key then Some f else None)
    t.prefix_subscribers

let publish t ~key ~creator ~chan_id =
  let pub = { key; creator; chan_id } in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.published key (pub, seq);
  List.iter (fun f -> f (`Published pub)) (subs t key);
  List.iter (fun f -> f (`Published pub)) (prefix_subs t key)

let unpublish t ~key =
  if Hashtbl.mem t.published key then begin
    Hashtbl.remove t.published key;
    List.iter (fun f -> f `Gone) (subs t key);
    List.iter (fun f -> f `Gone) (prefix_subs t key)
  end

let lookup t ~key =
  Option.map fst (Hashtbl.find_opt t.published key)

let subscribe t ~key f =
  let l =
    match Hashtbl.find_opt t.subscribers key with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add t.subscribers key l;
        l
  in
  l := !l @ [ f ];
  match Hashtbl.find_opt t.published key with
  | Some (pub, _) -> f (`Published pub)
  | None -> ()

let replay_prefix t ~prefix f =
  let matching =
    Hashtbl.fold
      (fun key entry acc ->
        if String.starts_with ~prefix key then entry :: acc else acc)
      t.published []
  in
  List.iter
    (fun (pub, _) -> f (`Published pub))
    (List.sort (fun (_, s1) (_, s2) -> compare s1 s2) matching)

let subscribe_prefix t ~prefix f =
  t.prefix_subscribers <- t.prefix_subscribers @ [ (prefix, f) ];
  replay_prefix t ~prefix f
