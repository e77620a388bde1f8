(* A slot's state: never handed out, live, or reclaimed by a single
   [free] (a second free through the same pointer is then a double
   free) or by a wholesale [free_all] (the owner crashed; late frees
   are merely stale). *)
type state = Never | Live | By_free | By_free_all

(* Per-slot metadata for the slots below the high-water mark, grown
   by doubling as more slots are handed out. All four arrays share one
   length; a grow swaps the whole record at once, so a reader on
   another domain sees a consistent set. *)
type meta = {
  gens : int array;
  state : state array;
  data : Bytes.t array;
      (* [Bytes.empty] until the owner's first [write]; then as long as
         the furthest byte written, never longer than [slot_size]. *)
  free : int array;  (* free stack: [free.(0 .. nfree - 1)], top last *)
}

type t = {
  id : int;
  slots : int;
  slot_size : int;
  mutable meta : meta;
  mutable nfree : int;
  mutable fresh : int;
      (* Slots at or above [fresh] were never handed out since create
         or the last [free_all]: [alloc] pops the free stack first and
         takes [fresh] only when it is empty, which is a LIFO free list
         that starts with slot 0 on top. *)
  mutable high : int;  (* the largest [fresh] ever: slots with metadata in use *)
  lock : Mutex.t option;
      (* Native runs only: serializes the free stack, the slot states,
         metadata growth and storage growth when a granted pool is
         allocated from one domain and freed from another (the driver
         fills the IP server's RX pool). Payload copies stay lock-free:
         slots are owner-disjoint and the hand-off is ordered by the
         ring's release/acquire publication. *)
}

exception Stale_pointer of Rich_ptr.t
exception Double_free of Rich_ptr.t
exception Pool_exhausted

(* Set by the native runtime before any pool is created; simulated runs
   stay lock-free (single-threaded, and the mutex would show up in the
   model's hot path for nothing). *)
let threadsafe_default = ref false
let set_default_threadsafe b = threadsafe_default := b

(* [locked t m f] runs [f] holding the pool's mutex. The lock-free
   paths of [alloc] and [free] call their bodies directly, so a
   simulated run builds no closure per operation. *)
let locked t m f =
  Mutex.lock m;
  (* Two separate race-hook events, not one: the acquire is
     recorded after [Mutex.lock] and the release just before
     [Mutex.unlock], so slot accesses made inside the critical
     section are covered by the release edge. A single combined
     event at entry would release the holder's clock before those
     accesses and cross-domain slot reuse (free on the owner,
     alloc on the grantee) would look like a race. *)
  if Hook.native_enabled () then
    Hook.native_emit (Hook.N_lock { lock = t.id; acquire = true });
  Fun.protect
    ~finally:(fun () ->
      if Hook.native_enabled () then
        Hook.native_emit (Hook.N_lock { lock = t.id; acquire = false });
      Mutex.unlock m)
    f

let with_lock t f = match t.lock with None -> f () | Some m -> locked t m f

(* Successful allocs and single frees on this domain since the
   innermost open meter ([meter_open] or [metered]) began. *)
let ops_key = Domain.DLS.new_key (fun () -> ref 0)
let count_op () = incr (Domain.DLS.get ops_key)

let meter_open () =
  let ops = Domain.DLS.get ops_key in
  let outer = !ops in
  ops := 0;
  outer

let meter_close outer =
  let ops = Domain.DLS.get ops_key in
  let n = !ops in
  ops := outer;
  n

let metered f =
  let outer = meter_open () in
  match f () with
  | v -> (meter_close outer, v)
  | exception e ->
      ignore (meter_close outer : int);
      raise e

let id_counter = ref 0

let fresh_id () =
  incr id_counter;
  !id_counter

let no_meta = { gens = [||]; state = [||]; data = [||]; free = [||] }

let create ~id ~slots ~slot_size =
  assert (slots > 0 && slot_size > 0);
  {
    id;
    slots;
    slot_size;
    meta = no_meta;
    nfree = 0;
    fresh = 0;
    high = 0;
    lock = (if !threadsafe_default then Some (Mutex.create ()) else None);
  }

let id t = t.id
let slot_size t = t.slot_size
let free_slots t = t.nfree + t.slots - t.fresh
let in_use t = t.fresh - t.nfree
let resident_slots t = t.high
let resident_bytes t = Array.fold_left (fun n b -> n + Bytes.length b) 0 t.meta.data

(* Called under the lock when [fresh] reaches the metadata's length. *)
let grow_meta t =
  let m = t.meta in
  let n = Array.length m.gens in
  let cap = min t.slots (max 16 (2 * n)) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.meta <-
    {
      gens = extend m.gens 0;
      state = extend m.state Never;
      data = extend m.data Bytes.empty;
      free = extend m.free 0;
    }

let alloc_slot t len =
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.meta.free.(t.nfree)
    end
    else if t.fresh < t.slots then begin
      if t.fresh = Array.length t.meta.gens then grow_meta t;
      let slot = t.fresh in
      t.fresh <- slot + 1;
      if t.fresh > t.high then t.high <- t.fresh;
      slot
    end
    else raise Pool_exhausted
  in
  let m = t.meta in
  m.state.(slot) <- Live;
  let gen = m.gens.(slot) in
  if Hook.enabled () then Hook.emit (Hook.Pool_alloc { pool = t.id; slot; gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:slot ~write:true;
  count_op ();
  { Rich_ptr.pool = t.id; slot; off = 0; len; gen }

let alloc t ~len =
  if len > t.slot_size then
    invalid_arg
      (Printf.sprintf "Pool.alloc: len %d exceeds slot size %d" len t.slot_size);
  match t.lock with
  | None -> alloc_slot t len
  | Some m -> locked t m (fun () -> alloc_slot t len)

let is_live m (p : Rich_ptr.t) =
  let slot = p.Rich_ptr.slot in
  slot >= 0
  && slot < Array.length m.gens
  && m.state.(slot) = Live
  && m.gens.(slot) = p.Rich_ptr.gen

let live t (p : Rich_ptr.t) = p.Rich_ptr.pool = t.id && is_live t.meta p

(* The metadata a live pointer is valid in: one snapshot serves the
   check and the access that follows it. *)
let check ?(op = `Check) t (p : Rich_ptr.t) =
  let m = t.meta in
  if p.Rich_ptr.pool <> t.id || not (is_live m p) then begin
    Hook.emit (Hook.Pool_stale { ptr = p; op });
    raise (Stale_pointer p)
  end;
  m

(* Storage for [slot] at least [stop] bytes long, keeping what was
   written. Under the lock, so it cannot interleave with [grow_meta]
   copying [data] on another domain. *)
let grow_storage t slot stop =
  with_lock t @@ fun () ->
  let data = t.meta.data in
  let old = data.(slot) in
  if Bytes.length old >= stop then old
  else begin
    let b = Bytes.make stop '\000' in
    Bytes.blit old 0 b 0 (Bytes.length old);
    data.(slot) <- b;
    b
  end

let write t p ~src ~src_off =
  let m = check ~op:`Write t p in
  let slot = p.Rich_ptr.slot and stop = p.Rich_ptr.off + p.Rich_ptr.len in
  if stop > t.slot_size then invalid_arg "Pool.write: chunk exceeds slot size";
  if Hook.enabled () then
    Hook.emit (Hook.Pool_write { pool = t.id; slot; gen = p.Rich_ptr.gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:slot ~write:true;
  let b = m.data.(slot) in
  let b = if Bytes.length b >= stop then b else grow_storage t slot stop in
  Bytes.blit src src_off b p.Rich_ptr.off p.Rich_ptr.len

let sub_ptr (p : Rich_ptr.t) ~off ~len =
  if off < 0 || len < 0 || off + len > p.Rich_ptr.len then
    invalid_arg "Pool.sub_ptr: out of chunk bounds";
  { p with Rich_ptr.off = p.Rich_ptr.off + off; len }

(* Copy the chunk behind a live pointer into [dst]; bytes past the
   slot's storage were never written and read as zeros. *)
let copy_out t (p : Rich_ptr.t) dst dst_off =
  let m = check ~op:`Read t p in
  if Hook.enabled () then
    Hook.emit
      (Hook.Pool_read { pool = t.id; slot = p.Rich_ptr.slot; gen = p.Rich_ptr.gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:p.Rich_ptr.slot ~write:false;
  let b = m.data.(p.Rich_ptr.slot) and off = p.Rich_ptr.off and len = p.Rich_ptr.len in
  let stored = max 0 (min len (Bytes.length b - off)) in
  if stored > 0 then Bytes.blit b off dst dst_off stored;
  Bytes.fill dst (dst_off + stored) (len - stored) '\000'

let read t p =
  let dst = Bytes.create p.Rich_ptr.len in
  copy_out t p dst 0;
  dst

let blit t p ~dst ~dst_off = copy_out t p dst dst_off

let free_slot t p =
  let m = t.meta and slot = p.Rich_ptr.slot in
  (* A pointer whose slot was reclaimed by a plain [free] and not since
     reallocated: this very allocation was already freed once. Calling
     it a stale pointer would hide the bug — and pushing the slot again
     would corrupt the free stack, handing the same slot to two owners. *)
  if
    p.Rich_ptr.pool = t.id
    && slot >= 0
    && slot < Array.length m.gens
    && m.state.(slot) = By_free
    && m.gens.(slot) = p.Rich_ptr.gen + 1
  then begin
    Hook.emit (Hook.Pool_double_free { ptr = p });
    raise (Double_free p)
  end;
  ignore (check ~op:`Free t p);
  m.state.(slot) <- By_free;
  m.gens.(slot) <- m.gens.(slot) + 1;
  if Hook.enabled () then
    Hook.emit (Hook.Pool_free { pool = t.id; slot; gen = p.Rich_ptr.gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:slot ~write:true;
  count_op ();
  m.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let free t p =
  match t.lock with
  | None -> free_slot t p
  | Some m -> locked t m (fun () -> free_slot t p)

let free_all t =
  with_lock t @@ fun () ->
  let m = t.meta in
  for i = 0 to t.high - 1 do
    if m.state.(i) = Live then begin
      m.state.(i) <- By_free_all;
      m.gens.(i) <- m.gens.(i) + 1
    end
  done;
  t.nfree <- 0;
  t.fresh <- 0;
  Hook.emit (Hook.Pool_free_all { pool = t.id })
