(* How a freed slot was last reclaimed: a single [free] (a second free
   through the same pointer is then a double free) or a wholesale
   [free_all] (the owner crashed; late frees are merely stale). *)
type reclaim = Never | By_free | By_free_all

type t = {
  id : int;
  slot_size : int;
  data : Bytes.t array;
      (* A slot's storage is created by its first [alloc] ([Bytes.empty]
         until then). The free list is LIFO, so only the high-water mark
         of slots in use is ever resident. *)
  mutable resident : int;
  gens : int array;
  free_list : int Stack.t;
  live : bool array;
  freed_by : reclaim array;
  lock : Mutex.t option;
      (* Native runs only: serializes free-list mutation when a granted
         pool is allocated from one domain and freed from another (the
         driver fills the IP server's RX pool). Slot payload access
         stays lock-free — slots are owner-disjoint and the hand-off is
         ordered by the ring's release/acquire publication. *)
}

exception Stale_pointer of Rich_ptr.t
exception Double_free of Rich_ptr.t
exception Pool_exhausted

(* Set by the native runtime before any pool is created; simulated runs
   stay lock-free (single-threaded, and the mutex would show up in the
   model's hot path for nothing). *)
let threadsafe_default = ref false
let set_default_threadsafe b = threadsafe_default := b

let with_lock t f =
  match t.lock with
  | None -> f ()
  | Some m ->
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

(* Successful allocs and single frees on this domain since the
   innermost open [metered] call began. *)
let ops_key = Domain.DLS.new_key (fun () -> ref 0)
let count_op () = incr (Domain.DLS.get ops_key)

let metered f =
  let ops = Domain.DLS.get ops_key in
  let outer = !ops in
  ops := 0;
  match f () with
  | v ->
      let n = !ops in
      ops := outer;
      (n, v)
  | exception e ->
      ops := outer;
      raise e

let id_counter = ref 0

let fresh_id () =
  incr id_counter;
  !id_counter

let create ~id ~slots ~slot_size =
  assert (slots > 0 && slot_size > 0);
  let free_list = Stack.create () in
  for i = slots - 1 downto 0 do
    Stack.push i free_list
  done;
  {
    id;
    slot_size;
    data = Array.make slots Bytes.empty;
    resident = 0;
    gens = Array.make slots 0;
    free_list;
    live = Array.make slots false;
    freed_by = Array.make slots Never;
    lock = (if !threadsafe_default then Some (Mutex.create ()) else None);
  }

let id t = t.id
let slot_size t = t.slot_size
let total_slots t = Array.length t.data
let free_slots t = Stack.length t.free_list
let in_use t = total_slots t - free_slots t
let resident_slots t = t.resident

let alloc t ~len =
  if len > t.slot_size then
    invalid_arg
      (Printf.sprintf "Pool.alloc: len %d exceeds slot size %d" len t.slot_size);
  with_lock t @@ fun () ->
  match Stack.pop_opt t.free_list with
  | None -> raise Pool_exhausted
  | Some slot ->
      (* Materialised under the lock, before the pointer exists: any
         domain that later receives the pointer through a ring's
         release/acquire publication also sees the storage. *)
      if Bytes.length t.data.(slot) = 0 then begin
        t.data.(slot) <- Bytes.create t.slot_size;
        t.resident <- t.resident + 1
      end;
      t.live.(slot) <- true;
      if Hook.enabled () then
        Hook.emit (Hook.Pool_alloc { pool = t.id; slot; gen = t.gens.(slot) });
      Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:slot ~write:true;
      count_op ();
      { Rich_ptr.pool = t.id; slot; off = 0; len; gen = t.gens.(slot) }

let check ?(op = `Check) t (p : Rich_ptr.t) =
  if
    p.Rich_ptr.pool <> t.id
    || p.Rich_ptr.slot < 0
    || p.Rich_ptr.slot >= Array.length t.data
    || (not t.live.(p.Rich_ptr.slot))
    || t.gens.(p.Rich_ptr.slot) <> p.Rich_ptr.gen
  then begin
    Hook.emit (Hook.Pool_stale { ptr = p; op });
    raise (Stale_pointer p)
  end

let live t (p : Rich_ptr.t) =
  p.Rich_ptr.pool = t.id
  && p.Rich_ptr.slot >= 0
  && p.Rich_ptr.slot < Array.length t.data
  && t.live.(p.Rich_ptr.slot)
  && t.gens.(p.Rich_ptr.slot) = p.Rich_ptr.gen

let write t p ~src ~src_off =
  check ~op:`Write t p;
  if Hook.enabled () then
    Hook.emit
      (Hook.Pool_write
         { pool = t.id; slot = p.Rich_ptr.slot; gen = p.Rich_ptr.gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:p.Rich_ptr.slot ~write:true;
  Bytes.blit src src_off t.data.(p.Rich_ptr.slot) p.Rich_ptr.off p.Rich_ptr.len

let sub_ptr (p : Rich_ptr.t) ~off ~len =
  if off < 0 || len < 0 || off + len > p.Rich_ptr.len then
    invalid_arg "Pool.sub_ptr: out of chunk bounds";
  { p with Rich_ptr.off = p.Rich_ptr.off + off; len }

let emit_read t (p : Rich_ptr.t) =
  if Hook.enabled () then
    Hook.emit
      (Hook.Pool_read { pool = t.id; slot = p.Rich_ptr.slot; gen = p.Rich_ptr.gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:p.Rich_ptr.slot ~write:false

let read t p =
  check ~op:`Read t p;
  emit_read t p;
  Bytes.sub t.data.(p.Rich_ptr.slot) p.Rich_ptr.off p.Rich_ptr.len

let blit t p ~dst ~dst_off =
  check ~op:`Read t p;
  emit_read t p;
  Bytes.blit t.data.(p.Rich_ptr.slot) p.Rich_ptr.off dst dst_off p.Rich_ptr.len

let free t p =
  with_lock t @@ fun () ->
  let slot = p.Rich_ptr.slot in
  (* A pointer whose slot was reclaimed by a plain [free] and not since
     reallocated: this very allocation was already freed once. Calling
     it a stale pointer would hide the bug — and pushing the slot again
     would corrupt the free list, handing the same slot to two owners. *)
  if
    p.Rich_ptr.pool = t.id
    && slot >= 0
    && slot < Array.length t.data
    && (not t.live.(slot))
    && t.gens.(slot) = p.Rich_ptr.gen + 1
    && t.freed_by.(slot) = By_free
  then begin
    Hook.emit (Hook.Pool_double_free { ptr = p });
    raise (Double_free p)
  end;
  check ~op:`Free t p;
  t.live.(slot) <- false;
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.freed_by.(slot) <- By_free;
  if Hook.enabled () then
    Hook.emit (Hook.Pool_free { pool = t.id; slot; gen = p.Rich_ptr.gen });
  Hook.native_access Hook.N_pool_slot ~id:t.id ~sub:slot ~write:true;
  count_op ();
  Stack.push slot t.free_list

let free_all t =
  with_lock t @@ fun () ->
  Stack.clear t.free_list;
  for i = Array.length t.data - 1 downto 0 do
    if t.live.(i) then begin
      t.live.(i) <- false;
      t.gens.(i) <- t.gens.(i) + 1;
      t.freed_by.(i) <- By_free_all
    end;
    Stack.push i t.free_list
  done;
  Hook.emit (Hook.Pool_free_all { pool = t.id })
