type id = int
type 'a abort = id -> 'a -> unit

exception Abort_cycle of { db : int; peer : int; depth : int }

(* Identifiers are globally unique, not per-database: after a crash
   the owning server gets a fresh database, and a stale reply to a
   pre-crash request must not alias a new request's id (Section V-D:
   "we generate new identifiers"). One process-wide counter gives
   every id exactly one submission, ever. *)
let global_next_id = ref 0
let global_next_db = ref 0

(* Outstanding requests live in an open-addressed table of parallel
   flat arrays, linear probing on the id, so a waiting request holds
   no heap block of its own (no bucket, no record). A freed slot gets
   [empty] as its key, [no_abort] as its abort and the database's
   filler — the first payload it was ever given — as its payload, so
   a completed request's payload is not kept reachable. *)
let empty = -1
let no_abort _ _ = ()
let initial_slots = 16

type 'a t = {
  db_id : int;
  mutable keys : int array;  (* [empty] marks a free slot *)
  mutable peers : int array;
  mutable seqs : int array;  (* submission order, for aborts and [iter] *)
  mutable payloads : 'a array;  (* [||] until the first submit *)
  mutable aborts : 'a abort array;
  mutable filler : 'a option;  (* the first payload; fills freed slots *)
  mutable count : int;
  mutable next_seq : int;
  mutable sweeping : bool;  (* an abort_peer sweep is on the stack *)
  mutable deferred : int list;  (* peers whose sweep arrived re-entrantly *)
}

(* A sweep that keeps re-queueing peers past this many rounds is a
   cycle of abort actions resubmitting to each other. *)
let max_sweep_depth = 64

let create () =
  incr global_next_db;
  {
    db_id = !global_next_db;
    keys = Array.make initial_slots empty;
    peers = Array.make initial_slots 0;
    seqs = Array.make initial_slots 0;
    payloads = [||];
    aborts = Array.make initial_slots no_abort;
    filler = None;
    count = 0;
    next_seq = 0;
    sweeping = false;
    deferred = [];
  }

let db_id t = t.db_id

(* Ids are consecutive across all databases, so several databases
   taking turns would give one of them ids in a fixed stride; a
   multiplicative hash spreads such strides over the table. *)
let home t id = (id * 0x9E3779B1) lsr 16 land (Array.length t.keys - 1)

let find_slot t id =
  let mask = Array.length t.keys - 1 in
  let rec probe i =
    let k = t.keys.(i) in
    if k = empty then -1 else if k = id then i else probe ((i + 1) land mask)
  in
  probe (home t id)

let place t ~id ~peer ~seq ~payload ~abort =
  let mask = Array.length t.keys - 1 in
  let rec probe i = if t.keys.(i) = empty then i else probe ((i + 1) land mask) in
  let i = probe (home t id) in
  t.keys.(i) <- id;
  t.peers.(i) <- peer;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload;
  t.aborts.(i) <- abort

(* Keep the load at most one half: double and re-place every entry. *)
let grow t filler =
  let keys = t.keys and peers = t.peers and seqs = t.seqs in
  let payloads = t.payloads and aborts = t.aborts in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n empty;
  t.peers <- Array.make n 0;
  t.seqs <- Array.make n 0;
  t.payloads <- Array.make n filler;
  t.aborts <- Array.make n no_abort;
  Array.iteri
    (fun i id ->
      if id <> empty then
        place t ~id ~peer:peers.(i) ~seq:seqs.(i) ~payload:payloads.(i) ~abort:aborts.(i))
    keys

(* Backward-shift deletion: empty slot [i], then walk the probe run
   after it and move back every entry whose home slot does not lie
   cyclically in (hole, j], so no lookup ever stops at a false gap. *)
let remove_at t i =
  let mask = Array.length t.keys - 1 in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let k = t.keys.(j) in
    if k = empty then hole
    else
      let h = home t k in
      let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
      if stays then shift hole j
      else begin
        t.keys.(hole) <- k;
        t.peers.(hole) <- t.peers.(j);
        t.seqs.(hole) <- t.seqs.(j);
        t.payloads.(hole) <- t.payloads.(j);
        t.aborts.(hole) <- t.aborts.(j);
        shift j j
      end
  in
  let last = shift i i in
  t.keys.(last) <- empty;
  (match t.filler with Some f -> t.payloads.(last) <- f | None -> ());
  t.aborts.(last) <- no_abort;
  t.count <- t.count - 1

let submit t ~peer ~payload ~abort =
  let id = !global_next_id in
  global_next_id := id + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (match t.filler with
  | None ->
      t.filler <- Some payload;
      t.payloads <- Array.make (Array.length t.keys) payload
  | Some filler -> if 2 * (t.count + 1) > Array.length t.keys then grow t filler);
  place t ~id ~peer ~seq ~payload ~abort;
  t.count <- t.count + 1;
  if Hook.enabled () then Hook.emit (Hook.Req_submit { db = t.db_id; id; peer });
  id

let complete t id =
  let i = find_slot t id in
  if i < 0 then begin
    if Hook.enabled () then
      Hook.emit (Hook.Req_confirm { db = t.db_id; id; known = false });
    None
  end
  else begin
    let payload = t.payloads.(i) in
    remove_at t i;
    if Hook.enabled () then
      Hook.emit (Hook.Req_confirm { db = t.db_id; id; known = true });
    Some payload
  end

let peek t id =
  let i = find_slot t id in
  if i < 0 then None else Some t.payloads.(i)

(* Slots whose entry satisfies [keep], in submission order. *)
let slots_in_seq_order t keep =
  let acc = ref [] in
  Array.iteri (fun i id -> if id <> empty && keep i then acc := i :: !acc) t.keys;
  List.sort (fun a b -> Int.compare t.seqs.(a) t.seqs.(b)) !acc

(* Run one peer's sweep: snapshot the doomed requests, remove them all
   before running any abort action (an abort never sees itself — or a
   sibling — as still outstanding), then run the aborts in submission
   order. *)
let sweep_one t ~peer =
  let doomed =
    List.map
      (fun i -> (t.keys.(i), t.payloads.(i), t.aborts.(i)))
      (slots_in_seq_order t (fun i -> t.peers.(i) = peer))
  in
  List.iter (fun (id, _, _) -> remove_at t (find_slot t id)) doomed;
  List.iter
    (fun (id, payload, abort) ->
      if Hook.enabled () then
        Hook.emit (Hook.Req_abort { db = t.db_id; id; peer });
      abort id payload)
    doomed;
  List.length doomed

let abort_peer t ~peer =
  if t.sweeping then begin
    (* Re-entrant call from inside an abort action (a cascading crash
       notification). Running it here would interleave two sweeps over
       shared state; instead queue the peer and let the outermost
       sweep drain it. The re-entrant caller gets 0 — its requests are
       aborted, just not synchronously. *)
    t.deferred <- t.deferred @ [ peer ];
    0
  end
  else begin
    t.sweeping <- true;
    Fun.protect
      ~finally:(fun () ->
        t.sweeping <- false;
        t.deferred <- [])
      (fun () ->
        let n = sweep_one t ~peer in
        let rec drain depth n =
          match t.deferred with
          | [] -> n
          | p :: rest ->
              if depth >= max_sweep_depth then
                raise (Abort_cycle { db = t.db_id; peer = p; depth });
              t.deferred <- rest;
              drain (depth + 1) (n + sweep_one t ~peer:p)
        in
        drain 1 n)
  end

let reset_signal t =
  if Hook.enabled () then Hook.emit (Hook.Req_reset { db = t.db_id })

let outstanding t = t.count

let outstanding_to t ~peer =
  let n = ref 0 in
  Array.iteri (fun i id -> if id <> empty && t.peers.(i) = peer then incr n) t.keys;
  !n

let iter t f =
  slots_in_seq_order t (fun _ -> true)
  |> List.map (fun i -> (t.keys.(i), t.peers.(i), t.payloads.(i)))
  |> List.iter (fun (id, peer, payload) -> f id ~peer payload)
