(* Tests for the fast-path channel building blocks: SPSC queue, pools,
   rich pointers, request database, pub/sub, simulated channels. *)

module Spsc = Newt_channels.Spsc_queue
module Pool = Newt_channels.Pool
module Rich_ptr = Newt_channels.Rich_ptr
module Request_db = Newt_channels.Request_db
module Pubsub = Newt_channels.Pubsub
module Sim_chan = Newt_channels.Sim_chan
module Hook = Newt_channels.Hook

(* The SPSC queue's whole reason to exist is lock-free use from two
   real domains. Push a long numbered sequence from one domain, pop it
   from another with randomized pacing on both sides, and require exact
   in-order delivery: any lost, duplicated or reordered message shows
   up as a sequence break. Capacity is small so the ring wraps
   thousands of times; backoff falls through to a real sleep so the
   test also passes on a single-core machine where both domains
   time-share. *)
let test_spsc_cross_domain_stress () =
  let n = 1_000_000 in
  let q = Spsc.create ~capacity:1024 () in
  let backoff tries = if tries < 200 then Domain.cpu_relax () else Unix.sleepf 5e-5 in
  let producer () =
    let rng = Random.State.make [| 7 |] in
    let i = ref 0 in
    let tries = ref 0 in
    while !i < n do
      if Spsc.try_push q !i then begin
        incr i;
        tries := 0;
        (* Random pauses vary the producer/consumer phase alignment. *)
        if Random.State.int rng 4096 = 0 then Unix.sleepf 5e-5
      end
      else begin
        incr tries;
        backoff !tries
      end
    done
  in
  let consumer () =
    let rng = Random.State.make [| 11 |] in
    let expected = ref 0 in
    let bad = ref None in
    let tries = ref 0 in
    while !expected < n && !bad = None do
      match Spsc.try_pop q with
      | Some v ->
          if v <> !expected then bad := Some (v, !expected) else incr expected;
          tries := 0;
          if Random.State.int rng 4096 = 0 then Unix.sleepf 5e-5
      | None ->
          incr tries;
          backoff !tries
    done;
    (!expected, !bad)
  in
  let cons = Domain.spawn consumer in
  producer ();
  let got, bad = Domain.join cons in
  (match bad with
  | Some (v, e) ->
      Alcotest.failf "sequence broken: got %d where %d was expected" v e
  | None -> ());
  Alcotest.(check int) "every message delivered exactly once, in order" n got;
  Alcotest.(check bool) "queue drained" true (Spsc.is_empty q)

let test_spsc_basic () =
  let q = Spsc.create ~capacity:4 () in
  Alcotest.(check bool) "empty" true (Spsc.is_empty q);
  Alcotest.(check bool) "push 1" true (Spsc.try_push q 1);
  Alcotest.(check bool) "push 2" true (Spsc.try_push q 2);
  Alcotest.(check (option int)) "peek" (Some 1) (Spsc.peek q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Spsc.try_pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Spsc.try_pop q);
  Alcotest.(check (option int)) "pop empty" None (Spsc.try_pop q)

let test_spsc_full () =
  let q = Spsc.create ~capacity:4 () in
  for i = 1 to 4 do
    Alcotest.(check bool) "fills" true (Spsc.try_push q i)
  done;
  Alcotest.(check bool) "full refuses" false (Spsc.try_push q 5);
  Alcotest.(check (option int)) "pop" (Some 1) (Spsc.try_pop q);
  Alcotest.(check bool) "room again" true (Spsc.try_push q 5)

let test_spsc_capacity_rounds_up () =
  let q = Spsc.create ~capacity:5 () in
  Alcotest.(check int) "rounded to 8" 8 (Spsc.capacity q)

let test_spsc_wraparound () =
  let q = Spsc.create ~capacity:4 () in
  for round = 0 to 99 do
    Alcotest.(check bool) "push" true (Spsc.try_push q round);
    Alcotest.(check (option int)) "pop" (Some round) (Spsc.try_pop q)
  done;
  Alcotest.(check int) "length 0" 0 (Spsc.length q)

let test_spsc_cross_domain () =
  (* Producer domain pushes 100k ints; consumer (this domain) pops and
     sums. Checks the ring is safe across real parallel domains. *)
  let n = 100_000 in
  let q = Spsc.create ~capacity:1024 () in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while !i < n do
          if Spsc.try_push q !i then incr i
        done)
  in
  let sum = ref 0 and got = ref 0 in
  while !got < n do
    match Spsc.try_pop q with
    | Some v ->
        sum := !sum + v;
        incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check int) "all values received in order-sum" (n * (n - 1) / 2) !sum

let test_spsc_ordering_cross_domain () =
  let n = 50_000 in
  let q = Spsc.create ~capacity:64 () in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while !i < n do
          if Spsc.try_push q !i then incr i
        done)
  in
  let expected = ref 0 and ok = ref true in
  while !expected < n do
    match Spsc.try_pop q with
    | Some v ->
        if v <> !expected then ok := false;
        incr expected
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "FIFO order preserved across domains" true !ok

let test_pool_alloc_free () =
  let p = Pool.create ~id:1 ~slots:4 ~slot_size:64 in
  Alcotest.(check int) "all free" 4 (Pool.free_slots p);
  let ptr = Pool.alloc p ~len:10 in
  Alcotest.(check int) "one used" 1 (Pool.in_use p);
  Pool.write p ptr ~src:(Bytes.of_string "0123456789") ~src_off:0;
  Alcotest.(check string) "readback" "0123456789" (Bytes.to_string (Pool.read p ptr));
  Pool.free p ptr;
  Alcotest.(check int) "freed" 0 (Pool.in_use p)

let test_pool_stale_detection () =
  let p = Pool.create ~id:2 ~slots:2 ~slot_size:16 in
  let ptr = Pool.alloc p ~len:8 in
  Pool.free p ptr;
  Alcotest.check_raises "read after free" (Pool.Stale_pointer ptr) (fun () ->
      ignore (Pool.read p ptr));
  Alcotest.check_raises "double free" (Pool.Double_free ptr) (fun () ->
      Pool.free p ptr)

let test_pool_double_free_vs_stale () =
  (* A second free of the same allocation is a distinct bug class from a
     late free of a recycled slot: the former raises [Double_free], the
     latter [Stale_pointer]. *)
  let p = Pool.create ~id:20 ~slots:1 ~slot_size:16 in
  let ptr1 = Pool.alloc p ~len:4 in
  Pool.free p ptr1;
  let ptr2 = Pool.alloc p ~len:4 in
  Alcotest.(check int) "slot recycled" ptr1.Rich_ptr.slot ptr2.Rich_ptr.slot;
  Alcotest.check_raises "free through old generation is stale"
    (Pool.Stale_pointer ptr1) (fun () -> Pool.free p ptr1);
  Alcotest.(check bool) "current allocation unharmed" true (Pool.live p ptr2);
  Pool.free p ptr2;
  Alcotest.check_raises "second free of same allocation is a double free"
    (Pool.Double_free ptr2) (fun () -> Pool.free p ptr2);
  Alcotest.(check int) "free list not corrupted" 1 (Pool.free_slots p)

let test_pool_free_after_crash_reclaim_is_stale () =
  (* [free_all] models the owner's crash: stragglers freeing afterwards
     hold merely stale pointers, not double frees. *)
  let p = Pool.create ~id:21 ~slots:2 ~slot_size:8 in
  let ptr = Pool.alloc p ~len:4 in
  Pool.free_all p;
  Alcotest.check_raises "late free after crash reclaim"
    (Pool.Stale_pointer ptr) (fun () -> Pool.free p ptr)

let test_pool_generation_reuse () =
  let p = Pool.create ~id:3 ~slots:1 ~slot_size:16 in
  let ptr1 = Pool.alloc p ~len:4 in
  Pool.free p ptr1;
  let ptr2 = Pool.alloc p ~len:4 in
  (* Same slot, new generation: the old pointer must stay dead. *)
  Alcotest.(check int) "same slot" ptr1.Rich_ptr.slot ptr2.Rich_ptr.slot;
  Alcotest.(check bool) "old pointer dead" false (Pool.live p ptr1);
  Alcotest.(check bool) "new pointer live" true (Pool.live p ptr2)

let test_pool_exhaustion () =
  let p = Pool.create ~id:4 ~slots:2 ~slot_size:8 in
  let _ = Pool.alloc p ~len:1 in
  let _ = Pool.alloc p ~len:1 in
  Alcotest.check_raises "exhausted" Pool.Pool_exhausted (fun () ->
      ignore (Pool.alloc p ~len:1))

let test_pool_metered () =
  let p = Pool.create ~id:7 ~slots:2 ~slot_size:8 in
  let q = Pool.create ~id:8 ~slots:1 ~slot_size:8 in
  let n, inner =
    Pool.metered (fun () ->
        let a = Pool.alloc p ~len:1 in
        let b = Pool.alloc p ~len:1 in
        (* Refused operations are not operations. *)
        (try ignore (Pool.alloc p ~len:1) with Pool.Pool_exhausted -> ());
        Pool.free p a;
        (try Pool.free p a with Pool.Double_free _ -> ());
        (* A nested metered call keeps its own count. *)
        let inner, () =
          Pool.metered (fun () ->
              Pool.free p b;
              ignore (Pool.alloc q ~len:1))
        in
        inner)
  in
  Alcotest.(check int) "two allocs and a free, across pools" 3 n;
  Alcotest.(check int) "nested call counts its own" 2 inner;
  Alcotest.(check int) "free_all is not an operation" 0
    (fst (Pool.metered (fun () -> Pool.free_all q)))

let test_pool_sub_ptr () =
  let p = Pool.create ~id:5 ~slots:1 ~slot_size:32 in
  let ptr = Pool.alloc p ~len:20 in
  Pool.write p ptr ~src:(Bytes.of_string "abcdefghijklmnopqrst") ~src_off:0;
  let sub = Pool.sub_ptr ptr ~off:5 ~len:3 in
  Alcotest.(check string) "sub view" "fgh" (Bytes.to_string (Pool.read p sub));
  Alcotest.check_raises "oob sub" (Invalid_argument "Pool.sub_ptr: out of chunk bounds")
    (fun () -> ignore (Pool.sub_ptr ptr ~off:15 ~len:10))

let test_pool_free_all () =
  let p = Pool.create ~id:6 ~slots:3 ~slot_size:8 in
  let a = Pool.alloc p ~len:1 in
  let _b = Pool.alloc p ~len:1 in
  Pool.free_all p;
  Alcotest.(check int) "all free" 3 (Pool.free_slots p);
  Alcotest.(check bool) "old pointer dead" false (Pool.live p a)

let test_pool_free_all_keeps_storage () =
  let p = Pool.create ~id:22 ~slots:8 ~slot_size:16 in
  Alcotest.(check int) "nothing resident at create" 0 (Pool.resident_slots p);
  let a = Pool.alloc p ~len:4 in
  let b = Pool.alloc p ~len:4 in
  let _c = Pool.alloc p ~len:4 in
  Pool.write p a ~src:(Bytes.make 4 'a') ~src_off:0;
  Pool.free p b;
  Alcotest.(check int) "three materialised" 3 (Pool.resident_slots p);
  Pool.free_all p;
  Alcotest.(check int) "metadata kept across free_all" 3 (Pool.resident_slots p);
  Alcotest.(check int) "storage kept across free_all" 4 (Pool.resident_bytes p);
  Alcotest.(check int) "every slot free" 8 (Pool.free_slots p);
  (* Generations survive too: slot 0 went live once, so it comes back
     one generation on, and the pre-reclaim pointer stays dead. *)
  let a' = Pool.alloc p ~len:4 in
  Alcotest.(check int) "same slot reused first" a.Rich_ptr.slot a'.Rich_ptr.slot;
  Alcotest.(check int) "generation advanced" (a.Rich_ptr.gen + 1) a'.Rich_ptr.gen;
  Alcotest.(check bool) "old pointer dead" false (Pool.live p a);
  ignore (Pool.alloc p ~len:4);
  ignore (Pool.alloc p ~len:4);
  Alcotest.(check int) "reuse allocates nothing new" 3 (Pool.resident_slots p);
  ignore (Pool.alloc p ~len:4);
  Alcotest.(check int) "a fourth live slot materialises" 4 (Pool.resident_slots p)

let test_pool_never_allocated_slot () =
  (* Slots that never held storage still fail loudly, never with an
     index error on the empty storage. *)
  let p = Pool.create ~id:23 ~slots:4 ~slot_size:16 in
  let ghost = { Rich_ptr.pool = 23; slot = 3; off = 0; len = 4; gen = 0 } in
  Alcotest.check_raises "read" (Pool.Stale_pointer ghost) (fun () ->
      ignore (Pool.read p ghost));
  Alcotest.check_raises "blit" (Pool.Stale_pointer ghost) (fun () ->
      Pool.blit p ghost ~dst:(Bytes.create 4) ~dst_off:0);
  Alcotest.check_raises "write" (Pool.Stale_pointer ghost) (fun () ->
      Pool.write p ghost ~src:(Bytes.create 4) ~src_off:0);
  Alcotest.check_raises "free" (Pool.Stale_pointer ghost) (fun () ->
      Pool.free p ghost);
  let before = { ghost with Rich_ptr.gen = -1 } in
  Alcotest.check_raises "free one generation back" (Pool.Stale_pointer before)
    (fun () -> Pool.free p before);
  Alcotest.(check int) "no storage created by failures" 0 (Pool.resident_slots p);
  Alcotest.(check int) "free list intact" 4 (Pool.free_slots p);
  (* The first allocation of a fresh slot double-frees like any other. *)
  let ptr = Pool.alloc p ~len:4 in
  Pool.free p ptr;
  Alcotest.check_raises "double free" (Pool.Double_free ptr) (fun () ->
      Pool.free p ptr);
  Alcotest.(check int) "free list not corrupted" 4 (Pool.free_slots p)

let test_pool_memory_follows_use () =
  (* Creation costs a few words whatever the slot count; storage is
     made by writes, sized by how far they reach, and reads never add
     any. *)
  let p = Pool.create ~id:24 ~slots:1_000_000 ~slot_size:2048 in
  let words = Obj.reachable_words (Obj.repr p) in
  Alcotest.(check bool) (Printf.sprintf "fresh pool is %d words" words) true
    (words < 100);
  let ptr = Pool.alloc p ~len:1500 in
  Alcotest.(check int) "alloc creates no storage" 0 (Pool.resident_bytes p);
  let ack = Pool.sub_ptr ptr ~off:0 ~len:60 in
  Pool.write p ack ~src:(Bytes.make 60 'a') ~src_off:0;
  Alcotest.(check int) "a 60-byte write makes 60 bytes resident" 60
    (Pool.resident_bytes p);
  let words = Obj.reachable_words (Obj.repr p) in
  let whole = Pool.read p ptr in
  Alcotest.(check string) "never-written bytes read as zeros"
    (String.make 60 'a' ^ String.make 1440 '\000')
    (Bytes.to_string whole);
  let dst = Bytes.make 1500 'x' in
  Pool.blit p ptr ~dst ~dst_off:0;
  Alcotest.(check bool) "blit zero-fills too" true (Bytes.equal dst whole);
  Alcotest.(check string) "a chunk wholly past the storage reads as zeros"
    (String.make 40 '\000')
    (Bytes.to_string (Pool.read p (Pool.sub_ptr ptr ~off:100 ~len:40)));
  Alcotest.(check int) "reads create no storage" 60 (Pool.resident_bytes p);
  Alcotest.(check int) "reads allocate nothing in the pool" words
    (Obj.reachable_words (Obj.repr p));
  Pool.write p ptr ~src:(Bytes.make 1500 'b') ~src_off:0;
  Alcotest.(check int) "a 1500-byte write grows the storage" 1500
    (Pool.resident_bytes p);
  Alcotest.(check string) "grown storage holds the write" (String.make 1500 'b')
    (Bytes.to_string (Pool.read p ptr));
  Pool.free p ptr;
  let again = Pool.alloc p ~len:60 in
  Pool.write p again ~src:(Bytes.make 60 'c') ~src_off:0;
  Alcotest.(check int) "a reused slot keeps its storage" 1500
    (Pool.resident_bytes p);
  Alcotest.(check int) "one slot ever handed out" 1 (Pool.resident_slots p);
  Alcotest.check_raises "writes stop at the slot size"
    (Invalid_argument "Pool.write: chunk exceeds slot size") (fun () ->
      Pool.write p { again with Rich_ptr.off = 2000; len = 60 }
        ~src:(Bytes.make 60 'd') ~src_off:0)

let test_chain_len () =
  let mk len = { Rich_ptr.pool = 0; slot = 0; off = 0; len; gen = 0 } in
  Alcotest.(check int) "chain length" 60 (Rich_ptr.chain_len [ mk 14; mk 40; mk 6 ]);
  Alcotest.(check int) "empty chain" 0 (Rich_ptr.chain_len [])

let test_request_db_match () =
  let db = Request_db.create () in
  let id1 = Request_db.submit db ~peer:1 ~payload:"a" ~abort:(fun _ _ -> ()) in
  let id2 = Request_db.submit db ~peer:2 ~payload:"b" ~abort:(fun _ _ -> ()) in
  Alcotest.(check bool) "unique ids" true (id1 <> id2);
  Alcotest.(check (option string)) "complete 2" (Some "b") (Request_db.complete db id2);
  Alcotest.(check (option string)) "stale reply ignored" None (Request_db.complete db id2);
  Alcotest.(check int) "one left" 1 (Request_db.outstanding db)

let test_request_db_abort_actions () =
  let db = Request_db.create () in
  let aborted = ref [] in
  let abort _id payload = aborted := payload :: !aborted in
  ignore (Request_db.submit db ~peer:7 ~payload:"x" ~abort);
  ignore (Request_db.submit db ~peer:7 ~payload:"y" ~abort);
  ignore (Request_db.submit db ~peer:8 ~payload:"z" ~abort);
  let n = Request_db.abort_peer db ~peer:7 in
  Alcotest.(check int) "two aborted" 2 n;
  Alcotest.(check (list string)) "abort order = submission order" [ "x"; "y" ]
    (List.rev !aborted);
  Alcotest.(check int) "one request survives" 1 (Request_db.outstanding db);
  Alcotest.(check int) "survivor is to peer 8" 1 (Request_db.outstanding_to db ~peer:8)

let test_request_db_abort_reentrant () =
  (* An abort action that itself calls [abort_peer] — what happens when
     tearing down one peer reveals another doomed one. The nested call
     must defer (returning 0), and the outermost call drains it after
     its own sweep, counting both. *)
  let db = Request_db.create () in
  let aborted = ref [] in
  let plain name _id _payload = aborted := name :: !aborted in
  let nested_count = ref (-1) in
  let reentrant name _id _payload =
    aborted := name :: !aborted;
    (* Re-entering from inside an abort action: must not run peer 9's
       aborts here, just queue them. *)
    nested_count := Request_db.abort_peer db ~peer:9
  in
  ignore (Request_db.submit db ~peer:7 ~payload:() ~abort:(plain "a7"));
  ignore (Request_db.submit db ~peer:7 ~payload:() ~abort:(reentrant "b7"));
  ignore (Request_db.submit db ~peer:9 ~payload:() ~abort:(plain "c9"));
  ignore (Request_db.submit db ~peer:8 ~payload:() ~abort:(plain "d8"));
  let n = Request_db.abort_peer db ~peer:7 in
  Alcotest.(check int) "nested call defers and reports 0" 0 !nested_count;
  Alcotest.(check int) "outermost count includes the deferred peer" 3 n;
  Alcotest.(check (list string)) "peer 7 first, deferred peer 9 after"
    [ "a7"; "b7"; "c9" ] (List.rev !aborted);
  Alcotest.(check int) "peer 8 untouched" 1 (Request_db.outstanding db);
  (* Records are removed before aborts run: a second sweep of either
     peer finds nothing. *)
  Alcotest.(check int) "peer 7 already gone" 0 (Request_db.abort_peer db ~peer:7);
  Alcotest.(check int) "peer 9 already gone" 0 (Request_db.abort_peer db ~peer:9)

let test_request_db_abort_resubmit_from_abort () =
  (* The documented contract allows an abort action to submit a fresh
     request (retarget to a restarted peer); the fresh record must
     survive the sweep that triggered it. *)
  let db = Request_db.create () in
  let resubmitted = ref None in
  let abort _id payload =
    resubmitted := Some (Request_db.submit db ~peer:5 ~payload ~abort:(fun _ _ -> ()))
  in
  ignore (Request_db.submit db ~peer:5 ~payload:"retry-me" ~abort);
  let n = Request_db.abort_peer db ~peer:5 in
  Alcotest.(check int) "one aborted" 1 n;
  Alcotest.(check bool) "abort resubmitted" true (!resubmitted <> None);
  Alcotest.(check int) "fresh request survives the sweep" 1
    (Request_db.outstanding_to db ~peer:5)

let test_request_db_ids_globally_unique () =
  (* Identifiers are process-wide, not per-database: a stale reply to a
     pre-crash request must never alias a request a *different* (fresh)
     database just issued. *)
  let a = Request_db.create () and b = Request_db.create () in
  Alcotest.(check bool) "distinct database identities" true
    (Request_db.db_id a <> Request_db.db_id b);
  let noop _ _ = () in
  let ids =
    List.concat_map
      (fun _ ->
        [
          Request_db.submit a ~peer:1 ~payload:() ~abort:noop;
          Request_db.submit b ~peer:1 ~payload:() ~abort:noop;
        ])
      [ (); (); () ]
  in
  Alcotest.(check int) "no id aliases across database instances" 6
    (List.length (List.sort_uniq compare ids))

let test_request_db_abort_cycle_capped () =
  (* Two abort actions that keep resubmitting to and re-aborting each
     other: every drained sweep queues the next one, so the deferral
     never empties and the outermost call must give up with
     [Abort_cycle] instead of looping forever. *)
  let db = Request_db.create () in
  let rec ping _id () =
    ignore (Request_db.submit db ~peer:2 ~payload:() ~abort:pong);
    ignore (Request_db.abort_peer db ~peer:2)
  and pong _id () =
    ignore (Request_db.submit db ~peer:1 ~payload:() ~abort:ping);
    ignore (Request_db.abort_peer db ~peer:1)
  in
  ignore (Request_db.submit db ~peer:1 ~payload:() ~abort:ping);
  (match Request_db.abort_peer db ~peer:1 with
  | (_ : int) -> Alcotest.fail "cyclic abort sweep terminated without a cap"
  | exception Request_db.Abort_cycle { db = reported; peer; depth } ->
      Alcotest.(check int) "names the database" (Request_db.db_id db) reported;
      Alcotest.(check bool) "the queued peer is one of the cycle" true
        (peer = 1 || peer = 2);
      Alcotest.(check int) "stopped at the depth cap" 64 depth);
  (* The failed sweep cleared its deferral state on the way out: a
     plain abort on the same database runs synchronously again (a
     still-set sweeping flag would defer it and return 0). *)
  ignore (Request_db.submit db ~peer:3 ~payload:() ~abort:(fun _ _ -> ()));
  Alcotest.(check int) "database usable after the cap" 1
    (Request_db.abort_peer db ~peer:3)

let test_hook_listener_chain () =
  let before = Hook.enabled () in
  let a = ref 0 and b = ref 0 in
  let ta = Hook.add (fun ~actor:_ _ -> incr a) in
  let tb = Hook.add (fun ~actor:_ _ -> incr b) in
  Fun.protect
    ~finally:(fun () ->
      Hook.remove ta;
      Hook.remove tb)
    (fun () ->
      Alcotest.(check bool) "enabled while registered" true (Hook.enabled ());
      Hook.emit (Hook.Req_reset { db = 424242 });
      Alcotest.(check int) "first listener fed" 1 !a;
      Alcotest.(check int) "second listener fed" 1 !b;
      Hook.remove ta;
      Hook.emit (Hook.Req_reset { db = 424242 });
      Alcotest.(check int) "removed listener silent" 1 !a;
      Alcotest.(check int) "remaining listener still fed" 2 !b;
      (* Removing an already-removed token is a documented no-op. *)
      Hook.remove ta;
      Hook.emit (Hook.Req_reset { db = 424242 });
      Alcotest.(check int) "double remove harmless" 3 !b);
  Alcotest.(check bool) "chain restored" before (Hook.enabled ())

let test_hook_sampler_keeps_whole_subjects () =
  (* One period samples all three families by subject: 64 subjects per
     family, two events each, period 4. Each family must keep a strict,
     non-empty subset of its subjects, each kept subject whole, and
     account for every emission in its (seen, kept) counters; the
     events that order or scope every subject are always delivered. *)
  let sim_hits = Hashtbl.create 64 and native_hits = Hashtbl.create 64 in
  let tcp_hits = Hashtbl.create 64 and unsampled = ref 0 in
  let hit tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let toks =
    [
      Hook.add (fun ~actor:_ -> function
        | Hook.Pool_alloc { slot; _ } | Hook.Pool_free { slot; _ } ->
            hit sim_hits slot
        | Hook.Pool_own _ | Hook.Req_reset _ -> incr unsampled
        | _ -> ());
      Hook.native_add (function
        | Hook.N_access { sub; _ } -> hit native_hits sub
        | _ -> incr unsampled);
      Hook.tcp_add (function
        | Hook.T_seg_tx { rport; _ } | Hook.T_seg_rx { rport; _ } ->
            hit tcp_hits rport
        | Hook.T_state_change _ -> ());
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Hook.remove toks;
      Hook.set_sample 1)
  @@ fun () ->
  Hook.set_sample 3;
  Alcotest.(check int) "period rounded up to a power of two" 4 (Hook.sample ());
  let flags =
    { Hook.syn = false; ack = true; fin = false; rst = false; data = true }
  in
  for i = 0 to 63 do
    Hook.emit (Hook.Pool_alloc { pool = 9; slot = i; gen = 1 });
    Hook.emit (Hook.Pool_free { pool = 9; slot = i; gen = 1 });
    Hook.emit (Hook.Pool_own { pool = 9; owner = "ip" });
    Hook.emit (Hook.Req_reset { db = 9 });
    Hook.native_access Hook.N_pool_slot ~id:9 ~sub:i ~write:true;
    Hook.native_access Hook.N_pool_slot ~id:9 ~sub:i ~write:false;
    Hook.native_emit (Hook.N_ring_push { ring = 9; index = i });
    Hook.native_emit (Hook.N_post { loop = 0 });
    Hook.native_emit (Hook.N_lock { lock = 9; acquire = true });
    Hook.tcp_emit
      (Hook.T_seg_tx { lip = 1l; lport = 80; rip = 2l; rport = i; flags });
    Hook.tcp_emit
      (Hook.T_seg_rx { lip = 1l; lport = 80; rip = 2l; rport = i; flags })
  done;
  Alcotest.(check int) "unsampled events all delivered" (64 * 5) !unsampled;
  List.iter
    (fun (name, fam, hits) ->
      let kept_subjects = Hashtbl.length hits in
      Alcotest.(check bool)
        (Printf.sprintf "%s: strict non-empty subset (%d/64)" name
           kept_subjects)
        true
        (kept_subjects > 0 && kept_subjects < 64);
      Hashtbl.iter
        (fun k n ->
          Alcotest.(check int)
            (Printf.sprintf "%s: subject %d whole" name k)
            2 n)
        hits;
      Alcotest.(check (pair int int))
        (name ^ ": (seen, kept) accounts for every emission")
        (128, 2 * kept_subjects) (Hook.counts fam))
    [
      ("sim", Hook.Sim, sim_hits);
      ("native", Hook.Native, native_hits);
      ("tcp", Hook.Tcp, tcp_hits);
    ]

let test_hook_registry_spans_domains () =
  let flags =
    { Hook.syn = true; ack = false; fin = false; rst = false; data = false }
  in
  let tcp_ev =
    Hook.T_seg_tx { lip = 1l; lport = 1; rip = 2l; rport = 2; flags }
  in
  let emit_elsewhere () =
    Domain.join
      (Domain.spawn (fun () ->
           Hook.tcp_emit tcp_ev;
           Hook.native_emit (Hook.N_post { loop = 0 })))
  in
  (* Listeners registered here receive events emitted on another
     domain ... *)
  let tcp_n = Atomic.make 0 and native_n = Atomic.make 0 in
  let sim_n = ref 0 in
  let tt = Hook.tcp_add (fun _ -> Atomic.incr tcp_n) in
  let tn = Hook.native_add (fun _ -> Atomic.incr native_n) in
  let ts = Hook.add (fun ~actor:_ _ -> incr sim_n) in
  emit_elsewhere ();
  Alcotest.(check int) "tcp listener fed across domains" 1 (Atomic.get tcp_n);
  Alcotest.(check int) "native listener fed across domains" 1
    (Atomic.get native_n);
  (* ... and [remove] stops delivery whatever the token's family. *)
  List.iter Hook.remove [ tt; tn; ts ];
  emit_elsewhere ();
  Hook.emit (Hook.Req_reset { db = 1 });
  Alcotest.(check (list int)) "every family's token removed" [ 1; 1; 0 ]
    [ Atomic.get tcp_n; Atomic.get native_n; !sim_n ];
  (* Concurrent registration from two domains while a third emits:
     compare-and-set must lose no add and no remove. Each registrar
     keeps every other listener; a probe event then counts the
     survivors. *)
  let probe = Hook.N_loop_stop { loop = 424242 } in
  let live = Atomic.make 0 and stop = Atomic.make false in
  let emitter =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Hook.native_emit (Hook.N_post { loop = 0 })
        done)
  in
  let registrar () =
    let toks =
      List.init 1000 (fun _ ->
          Hook.native_add (fun ev -> if ev = probe then Atomic.incr live))
    in
    List.filteri
      (fun i tok ->
        if i mod 2 = 0 then begin
          Hook.remove tok;
          false
        end
        else true)
      toks
  in
  let other = Domain.spawn registrar in
  let mine = registrar () in
  let theirs = Domain.join other in
  Atomic.set stop true;
  Domain.join emitter;
  Hook.native_emit probe;
  Alcotest.(check int) "no registration lost" 1000 (Atomic.get live);
  List.iter Hook.remove (mine @ theirs);
  Alcotest.(check bool) "chain empty again" false (Hook.native_enabled ())

let test_hook_actor_epoch_bracket () =
  let seen = ref [] in
  let tok = Hook.add (fun ~actor _ -> seen := (actor, Hook.epoch ()) :: !seen) in
  Fun.protect
    ~finally:(fun () -> Hook.remove tok)
    (fun () ->
      Hook.emit (Hook.Req_reset { db = 1 });
      Hook.with_actor ~epoch:3 "ip" (fun () ->
          Hook.emit (Hook.Req_reset { db = 1 }));
      Hook.emit (Hook.Req_reset { db = 1 });
      match List.rev !seen with
      | [ (None, 0); (Some "ip", 3); (None, 0) ] -> ()
      | _ -> Alcotest.fail "actor/epoch bracket not scoped to with_actor")

let test_request_db_ids_never_reused () =
  let db = Request_db.create () in
  let id1 = Request_db.submit db ~peer:1 ~payload:0 ~abort:(fun _ _ -> ()) in
  ignore (Request_db.complete db id1);
  let id2 = Request_db.submit db ~peer:1 ~payload:0 ~abort:(fun _ _ -> ()) in
  Alcotest.(check bool) "fresh id after completion" true (id2 <> id1)

let test_pubsub_basic () =
  let ps = Pubsub.create () in
  let seen = ref [] in
  Pubsub.subscribe ps ~key:"ip.rx" (fun ev -> seen := ev :: !seen);
  Alcotest.(check int) "nothing yet" 0 (List.length !seen);
  Pubsub.publish ps ~key:"ip.rx" ~creator:3 ~chan_id:42;
  (match !seen with
  | [ `Published p ] ->
      Alcotest.(check int) "creator" 3 p.Pubsub.creator;
      Alcotest.(check int) "chan id" 42 p.Pubsub.chan_id
  | _ -> Alcotest.fail "expected one publication event");
  Pubsub.unpublish ps ~key:"ip.rx";
  Alcotest.(check bool) "gone event" true
    (match !seen with `Gone :: _ -> true | _ -> false)

let test_pubsub_replay_to_late_subscriber () =
  let ps = Pubsub.create () in
  Pubsub.publish ps ~key:"tcp.rx" ~creator:1 ~chan_id:7;
  let seen = ref None in
  Pubsub.subscribe ps ~key:"tcp.rx" (fun ev -> seen := Some ev);
  match !seen with
  | Some (`Published p) -> Alcotest.(check int) "replayed chan id" 7 p.Pubsub.chan_id
  | _ -> Alcotest.fail "late subscriber did not get replay"

let test_pubsub_republish_keeps_id () =
  let ps = Pubsub.create () in
  let ids = ref [] in
  Pubsub.subscribe ps ~key:"drv.0" (fun ev ->
      match ev with `Published p -> ids := p.Pubsub.chan_id :: !ids | `Gone -> ());
  Pubsub.publish ps ~key:"drv.0" ~creator:9 ~chan_id:5;
  (* Restarted creator republished the same identification. *)
  Pubsub.publish ps ~key:"drv.0" ~creator:9 ~chan_id:5;
  Alcotest.(check (list int)) "both publications delivered" [ 5; 5 ] !ids

let test_registry_register_replace () =
  let module Registry = Newt_channels.Registry in
  let reg = Registry.create () in
  let old_pool = Pool.create ~id:7 ~slots:2 ~slot_size:16 in
  let new_pool = Pool.create ~id:7 ~slots:2 ~slot_size:64 in
  Registry.register reg old_pool;
  Alcotest.(check int) "resolves to first" 16 (Pool.slot_size (Registry.find reg 7));
  (* A restarted owner re-creates the pool and re-registers the id. *)
  Registry.register reg new_pool;
  Alcotest.(check int) "replaced by re-registration" 64
    (Pool.slot_size (Registry.find reg 7))

let test_registry_unregister () =
  let module Registry = Newt_channels.Registry in
  let reg = Registry.create () in
  let pool = Pool.create ~id:9 ~slots:2 ~slot_size:16 in
  Registry.register reg pool;
  (* Unknown ids are a documented no-op: teardown paths may race. *)
  Registry.unregister reg ~id:424242;
  Alcotest.(check int) "registered pool survives stray withdrawal" 16
    (Pool.slot_size (Registry.find reg 9));
  Registry.unregister reg ~id:9;
  Alcotest.check_raises "withdrawn" (Registry.Unknown_pool 9) (fun () ->
      ignore (Registry.find reg 9));
  (* Second withdrawal of the same id is equally harmless. *)
  Registry.unregister reg ~id:9

let test_pubsub_replay_order_after_restart () =
  (* A restarted replica re-warms via [replay_prefix]; a republished key
     must land at the position of its *latest* publication so the
     replica converges to the same state as peers that heard the
     updates live. *)
  let ps = Pubsub.create () in
  Pubsub.publish ps ~key:"arp.1" ~creator:1 ~chan_id:11;
  Pubsub.publish ps ~key:"arp.2" ~creator:1 ~chan_id:12;
  Pubsub.publish ps ~key:"arp.3" ~creator:1 ~chan_id:13;
  (* The binding for arp.1 is refreshed after arp.3 was learned. *)
  Pubsub.publish ps ~key:"arp.1" ~creator:2 ~chan_id:21;
  let order = ref [] in
  Pubsub.replay_prefix ps ~prefix:"arp." (fun ev ->
      match ev with
      | `Published p -> order := (p.Pubsub.key, p.Pubsub.chan_id) :: !order
      | `Gone -> ());
  Alcotest.(check (list (pair string int)))
    "replay in publish order, republished key moved to latest position"
    [ ("arp.2", 12); ("arp.3", 13); ("arp.1", 21) ]
    (List.rev !order);
  (* A late prefix subscriber sees the same history. *)
  let order2 = ref [] in
  Pubsub.subscribe_prefix ps ~prefix:"arp." (fun ev ->
      match ev with
      | `Published p -> order2 := p.Pubsub.chan_id :: !order2
      | `Gone -> ());
  Alcotest.(check (list int)) "subscribe_prefix replays same order" [ 12; 13; 21 ]
    (List.rev !order2)

let test_sim_chan_send_recv () =
  let c = Sim_chan.create ~capacity:2 ~id:0 () in
  Alcotest.(check bool) "send 1" true (Sim_chan.send c "m1");
  Alcotest.(check bool) "send 2" true (Sim_chan.send c "m2");
  Alcotest.(check bool) "full drops" false (Sim_chan.send c "m3");
  Alcotest.(check (option string)) "recv" (Some "m1") (Sim_chan.recv c);
  Alcotest.(check int) "dropped counted" 1 (Sim_chan.dropped_total c);
  Alcotest.(check int) "sent counted" 2 (Sim_chan.sent_total c)

let test_sim_chan_notify_on_empty_enqueue () =
  let c = Sim_chan.create ~id:1 () in
  let wakes = ref 0 in
  Sim_chan.set_notify c (fun () -> incr wakes);
  ignore (Sim_chan.send c 1);
  ignore (Sim_chan.send c 2);
  Alcotest.(check int) "one wake for burst" 1 !wakes;
  ignore (Sim_chan.recv c);
  ignore (Sim_chan.recv c);
  ignore (Sim_chan.send c 3);
  Alcotest.(check int) "wakes again after drain" 2 !wakes

let test_sim_chan_teardown_revive () =
  let c = Sim_chan.create ~id:2 () in
  ignore (Sim_chan.send c 1);
  Sim_chan.tear_down c;
  Alcotest.(check bool) "down" true (Sim_chan.is_down c);
  Alcotest.(check bool) "send fails" false (Sim_chan.send c 2);
  Alcotest.(check (option int)) "recv fails" None (Sim_chan.recv c);
  Sim_chan.revive c;
  Alcotest.(check bool) "up again" false (Sim_chan.is_down c);
  Alcotest.(check (option int)) "queue was flushed" None (Sim_chan.recv c);
  Alcotest.(check bool) "send works" true (Sim_chan.send c 3)

let qtest name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let test_pool_invariants =
  qtest "pool alloc/free sequences preserve invariants"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 99))
    (fun ops ->
      let p = Pool.create ~id:12345 ~slots:8 ~slot_size:32 in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          if op mod 2 = 0 || !live = [] then begin
            (* Allocate (may legitimately exhaust). *)
            match Pool.alloc p ~len:16 with
            | ptr ->
                Pool.write p ptr ~src:(Bytes.make 16 (Char.chr (op land 0xff))) ~src_off:0;
                live := ptr :: !live
            | exception Pool.Pool_exhausted ->
                if List.length !live <> 8 then ok := false
          end
          else begin
            (* Free a random live pointer; it must die, others live. *)
            let i = op mod List.length !live in
            let victim = List.nth !live i in
            live := List.filteri (fun j _ -> j <> i) !live;
            Pool.free p victim;
            if Pool.live p victim then ok := false
          end;
          (* Global invariants after every step. *)
          if Pool.in_use p <> List.length !live then ok := false;
          if Pool.free_slots p + Pool.in_use p <> 8 then ok := false;
          List.iter (fun ptr -> if not (Pool.live p ptr) then ok := false) !live)
        ops;
      !ok)

let test_pool_resident_high_water =
  (* Metadata is created on a slot's first allocation and the free
     list is LIFO, so resident slots track the high-water mark of live
     slots — across frees, reuse and wholesale reclaims. Every chunk
     here is written with 8 bytes, so that is all the storage each
     resident slot holds, and live chunks keep their bytes. *)
  qtest "pool storage never exceeds the high-water mark"
    QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 99))
    (fun ops ->
      let slots = 16 in
      let p = Pool.create ~id:12346 ~slots ~slot_size:32 in
      let live = ref [] in
      let high = ref 0 in
      let ok = ref (Pool.resident_slots p = 0) in
      List.iter
        (fun op ->
          if op < 50 || !live = [] then begin
            match Pool.alloc p ~len:8 with
            | ptr ->
                Pool.write p ptr ~src:(Bytes.make 8 (Char.chr op)) ~src_off:0;
                live := (ptr, op) :: !live
            | exception Pool.Pool_exhausted -> ()
          end
          else if op < 97 then begin
            let i = op mod List.length !live in
            Pool.free p (fst (List.nth !live i));
            live := List.filteri (fun j _ -> j <> i) !live
          end
          else begin
            Pool.free_all p;
            live := []
          end;
          high := max !high (Pool.in_use p);
          if Pool.resident_slots p <> !high then ok := false;
          if Pool.resident_bytes p <> 8 * !high then ok := false;
          List.iter
            (fun (ptr, op) ->
              if Pool.read p ptr <> Bytes.make 8 (Char.chr op) then ok := false)
            !live)
        ops;
      !ok)

(* Today's pool as it was first written: a [Stack] free list holding
   every slot, slot 0 on top. The flat free stack must hand out the
   same slots in the same order and judge every free the same way. *)
module Stack_pool = struct
  type reclaim = Never | By_free | By_free_all

  type t = {
    gens : int array;
    live : bool array;
    freed_by : reclaim array;
    free_list : int Stack.t;
  }

  let refill t =
    Stack.clear t.free_list;
    for i = Array.length t.gens - 1 downto 0 do
      Stack.push i t.free_list
    done

  let create slots =
    let t =
      {
        gens = Array.make slots 0;
        live = Array.make slots false;
        freed_by = Array.make slots Never;
        free_list = Stack.create ();
      }
    in
    refill t;
    t

  let alloc t =
    Option.map
      (fun slot ->
        t.live.(slot) <- true;
        (slot, t.gens.(slot)))
      (Stack.pop_opt t.free_list)

  let free t (slot, gen) =
    if (not t.live.(slot)) && t.gens.(slot) = gen + 1 && t.freed_by.(slot) = By_free
    then `Double_free
    else if (not t.live.(slot)) || t.gens.(slot) <> gen then `Stale
    else begin
      t.live.(slot) <- false;
      t.gens.(slot) <- gen + 1;
      t.freed_by.(slot) <- By_free;
      Stack.push slot t.free_list;
      `Freed
    end

  let free_all t =
    Array.iteri
      (fun i live ->
        if live then begin
          t.live.(i) <- false;
          t.gens.(i) <- t.gens.(i) + 1;
          t.freed_by.(i) <- By_free_all
        end)
      t.live;
    refill t

  let free_slots t = Stack.length t.free_list
end

let test_pool_matches_stack_free_list =
  qtest "pool matches a Stack free list"
    QCheck2.Gen.(
      pair (int_range 1 40) (list_size (int_range 1 300) (pair (int_range 0 99) nat)))
    (fun (slots, ops) ->
      let p = Pool.create ~id:12347 ~slots ~slot_size:16 in
      let r = Stack_pool.create slots in
      (* Every pointer ever handed out, so frees can be live, stale or
         double. *)
      let handed = ref [||] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let free ptr =
        let got =
          match Pool.free p ptr with
          | () -> `Freed
          | exception Pool.Double_free _ -> `Double_free
          | exception Pool.Stale_pointer _ -> `Stale
        in
        expect (got = Stack_pool.free r (ptr.Rich_ptr.slot, ptr.Rich_ptr.gen))
      in
      List.iter
        (fun (op, pick) ->
          (if op < 50 then
             match (Pool.alloc p ~len:8, Stack_pool.alloc r) with
             | ptr, Some (slot, gen) ->
                 expect (ptr.Rich_ptr.slot = slot && ptr.Rich_ptr.gen = gen);
                 handed := Array.append !handed [| ptr |]
             | _, None -> ok := false
             | exception Pool.Pool_exhausted ->
                 expect (Stack_pool.alloc r = None && Pool.in_use p = slots)
           else if op < 80 then begin
             (* Free a live pointer, if there is one. *)
             let live = List.filter (Pool.live p) (Array.to_list !handed) in
             if live <> [] then free (List.nth live (pick mod List.length live))
           end
           else if op < 97 then begin
             (* Free any pointer ever handed out. *)
             let n = Array.length !handed in
             if n > 0 then free !handed.(pick mod n)
           end
           else begin
             Stack_pool.free_all r;
             Pool.free_all p
           end);
          expect (Pool.free_slots p = Stack_pool.free_slots r);
          expect (Pool.in_use p = slots - Stack_pool.free_slots r))
        ops;
      !ok)

let test_request_db_invariants =
  qtest "request db submit/complete/abort sequences"
    QCheck2.Gen.(list_size (int_range 1 150) (tup2 (int_range 0 2) (int_range 0 4)))
    (fun ops ->
      let db = Request_db.create () in
      let live = Hashtbl.create 16 in
      let aborted = ref 0 in
      let ok = ref true in
      List.iter
        (fun (kind, peer) ->
          match kind with
          | 0 ->
              let id = Request_db.submit db ~peer ~payload:peer ~abort:(fun _ _ -> incr aborted) in
              if Hashtbl.mem live id then ok := false (* ids must be fresh *);
              Hashtbl.replace live id peer
          | 1 -> (
              (* Complete a random live id if any. *)
              match Hashtbl.fold (fun id p acc -> (id, p) :: acc) live [] with
              | [] -> ()
              | (id, p) :: _ -> (
                  Hashtbl.remove live id;
                  match Request_db.complete db id with
                  | Some payload -> if payload <> p then ok := false
                  | None -> ok := false))
          | _ ->
              let expected =
                Hashtbl.fold (fun _ p acc -> if p = peer then acc + 1 else acc) live 0
              in
              let before = !aborted in
              let n = Request_db.abort_peer db ~peer in
              if n <> expected then ok := false;
              if !aborted - before <> expected then ok := false;
              Hashtbl.iter (fun id p -> if p = peer then Hashtbl.remove live id) live)
        ops;
      !ok && Request_db.outstanding db = Hashtbl.length live)

(* {2 Request_db against a Hashtbl model}

   The model keeps the contract in the plainest form: one table entry
   per outstanding request, sorted by submission order when aborts or
   [iter] need it. Payloads are fresh blocks known to the model only by
   their key, so the test can also check that the database lets go of
   every payload that completed or aborted. *)

type db_abort = Plain | Resubmit of int | Nested of int
type db_op = Submit of int * db_abort | Complete of int | Peek of int | Abort_peer of int

module Db_model = struct
  type entry = { peer : int; key : int; seq : int; abort : db_abort }

  type t = {
    db : int;
    table : (int, entry) Hashtbl.t;
    mutable next_id : int;
    mutable next_seq : int;
    mutable sweeping : bool;
    mutable deferred : int list;
    mutable events : Hook.event list;  (* newest first *)
    mutable nested : int list;  (* what re-entrant abort_peer calls returned *)
  }

  let create ~db ~first_id =
    {
      db;
      table = Hashtbl.create 16;
      next_id = first_id;
      next_seq = 0;
      sweeping = false;
      deferred = [];
      events = [];
      nested = [];
    }

  let emit t ev = t.events <- ev :: t.events

  let submit t ~peer ~key ~abort =
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.table id { peer; key; seq = t.next_seq; abort };
    t.next_seq <- t.next_seq + 1;
    emit t (Hook.Req_submit { db = t.db; id; peer });
    id

  let complete t id =
    let found = Hashtbl.find_opt t.table id in
    Hashtbl.remove t.table id;
    emit t (Hook.Req_confirm { db = t.db; id; known = found <> None });
    Option.map (fun e -> e.key) found

  let peek t id = Option.map (fun e -> e.key) (Hashtbl.find_opt t.table id)

  let in_order t =
    Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.table []
    |> List.sort (fun (_, a) (_, b) -> compare a.seq b.seq)

  let rec abort_peer t ~peer =
    if t.sweeping then begin
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
          let rec drain depth n =
            match t.deferred with
            | [] -> n
            | p :: rest ->
                if depth >= 64 then raise (Request_db.Abort_cycle { db = t.db; peer = p; depth });
                t.deferred <- rest;
                drain (depth + 1) (n + sweep t ~peer:p)
          in
          drain 1 (sweep t ~peer))
    end

  and sweep t ~peer =
    let doomed = List.filter (fun (_, e) -> e.peer = peer) (in_order t) in
    List.iter (fun (id, _) -> Hashtbl.remove t.table id) doomed;
    List.iter
      (fun (id, e) ->
        emit t (Hook.Req_abort { db = t.db; id; peer });
        match e.abort with
        | Plain -> ()
        | Resubmit q -> ignore (submit t ~peer:q ~key:e.key ~abort:Plain)
        | Nested q -> t.nested <- abort_peer t ~peer:q :: t.nested)
      doomed;
    List.length doomed

  let outstanding_to t ~peer =
    Hashtbl.fold (fun _ e n -> if e.peer = peer then n + 1 else n) t.table 0
end

let gen_db_ops =
  QCheck2.Gen.(
    let peer = int_range 0 3 in
    let abort =
      frequency
        [ (3, pure Plain); (1, map (fun q -> Resubmit q) peer); (1, map (fun q -> Nested q) peer) ]
    in
    list_size (int_range 1 150)
      (frequency
         [
           (4, map2 (fun p a -> Submit (p, a)) peer abort);
           (3, map (fun i -> Complete i) nat);
           (1, map (fun i -> Peek i) nat);
           (1, map (fun p -> Abort_peer p) peer);
         ]))

let request_db_matches_model ops =
  (* Ids come from one process-wide counter: the next one is one past
     a throwaway database's. *)
  let first_id =
    Request_db.submit (Request_db.create ()) ~peer:0 ~payload:() ~abort:(fun _ _ -> ()) + 1
  in
  let db = Request_db.create () in
  let model = Db_model.create ~db:(Request_db.db_id db) ~first_id in
  let seen = ref [] and nested = ref [] in
  let token =
    Hook.add (fun ~actor:_ ev ->
        match ev with
        | Hook.Req_submit { db = d; _ } | Req_confirm { db = d; _ } | Req_abort { db = d; _ }
          when d = Request_db.db_id db ->
            seen := ev :: !seen
        | _ -> ())
  in
  let payloads = Weak.create 1024 in
  let next_key = ref 0 in
  let fresh_payload () =
    let k = !next_key in
    incr next_key;
    let p = ref k in
    Weak.set payloads k (Some p);
    p
  in
  let rec real_abort = function
    | Plain -> fun _ _ -> ()
    | Resubmit q ->
        fun _ p -> ignore (Request_db.submit db ~peer:q ~payload:p ~abort:(real_abort Plain))
    | Nested q -> fun _ _ -> nested := Request_db.abort_peer db ~peer:q :: !nested
  in
  let handed = ref [] in
  let pick i =
    let ids = Array.of_list !handed in
    let n = Array.length ids in
    if i mod (n + 1) = n then -1 else ids.(i mod (n + 1))
  in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let step op =
    match op with
    | Submit (peer, abort) ->
        let payload = fresh_payload () in
        let id = Request_db.submit db ~peer ~payload ~abort:(real_abort abort) in
        expect (id = Db_model.submit model ~peer ~key:!payload ~abort);
        handed := id :: !handed
    | Complete i ->
        let id = pick i in
        expect (Option.map ( ! ) (Request_db.complete db id) = Db_model.complete model id)
    | Peek i ->
        let id = pick i in
        expect (Option.map ( ! ) (Request_db.peek db id) = Db_model.peek model id)
    | Abort_peer peer ->
        let outcome f =
          match f () with
          | n -> Ok n
          | exception Request_db.Abort_cycle c -> Error (c.peer, c.depth)
        in
        expect
          (outcome (fun () -> Request_db.abort_peer db ~peer)
          = outcome (fun () -> Db_model.abort_peer model ~peer))
  in
  let check_state () =
    expect (!seen = model.events);
    expect (!nested = model.nested);
    expect (Request_db.outstanding db = Hashtbl.length model.table);
    for peer = 0 to 3 do
      expect (Request_db.outstanding_to db ~peer = Db_model.outstanding_to model ~peer)
    done;
    let real = ref [] in
    Request_db.iter db (fun id ~peer p -> real := (id, peer, !p) :: !real);
    expect
      (List.rev !real
      = List.map (fun (id, e) -> (id, e.Db_model.peer, e.key)) (Db_model.in_order model))
  in
  Fun.protect
    ~finally:(fun () -> Hook.remove token)
    (fun () ->
      List.iter
        (fun op ->
          step op;
          check_state ())
        ops);
  (* A request that completed or aborted leaves nothing reachable from
     the database; only its first payload stays, as its filler. *)
  Gc.full_major ();
  let live = Hashtbl.fold (fun _ e acc -> e.Db_model.key :: acc) model.table [] in
  for k = 1 to !next_key - 1 do
    expect (Weak.check payloads k = List.mem k live)
  done;
  ignore (Sys.opaque_identity db);
  !ok

let test_request_db_matches_model =
  qtest "request db matches a Hashtbl model" gen_db_ops request_db_matches_model

(* {2 Sim_chan against Stdlib.Queue} *)

type chan_op = Send | Recv | Peek_msg | Tear_down | Revive

let gen_chan_script =
  QCheck2.Gen.(
    pair (int_range 1 40)
      (list_size (int_range 1 300)
         (frequency
            [
              (6, pure Send);
              (4, pure Recv);
              (1, pure Peek_msg);
              (1, pure Tear_down);
              (1, pure Revive);
            ])))

let sim_chan_matches_queue (capacity, ops) =
  let c = Sim_chan.create ~capacity ~id:0 () in
  let q = Queue.create () in
  let down = ref false and sent = ref 0 and dropped = ref 0 and max_occ = ref 0 in
  let wakes = ref 0 and model_wakes = ref 0 in
  Sim_chan.set_notify c (fun () -> incr wakes);
  let messages = Weak.create 512 in
  let next_key = ref 0 and first_accepted = ref (-1) in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let step = function
    | Send ->
        let k = !next_key in
        incr next_key;
        let m = ref k in
        Weak.set messages k (Some m);
        let accept = (not !down) && Queue.length q < capacity in
        expect (Sim_chan.send c m = accept);
        if accept then begin
          if Queue.is_empty q then incr model_wakes;
          Queue.push k q;
          incr sent;
          max_occ := max !max_occ (Queue.length q);
          if !first_accepted < 0 then first_accepted := k
        end
        else incr dropped
    | Recv ->
        let want = if !down then None else Queue.take_opt q in
        expect (Option.map ( ! ) (Sim_chan.recv c) = want)
    | Peek_msg ->
        let want = if !down then None else Queue.peek_opt q in
        expect (Option.map ( ! ) (Sim_chan.peek c) = want)
    | Tear_down ->
        Sim_chan.tear_down c;
        down := true;
        Queue.clear q
    | Revive ->
        Sim_chan.revive c;
        down := false;
        Queue.clear q
  in
  List.iter
    (fun op ->
      step op;
      expect (Sim_chan.length c = Queue.length q);
      expect (Sim_chan.is_empty c = Queue.is_empty q);
      expect (Sim_chan.is_down c = !down);
      expect (Sim_chan.sent_total c = !sent);
      expect (Sim_chan.dropped_total c = !dropped);
      expect (Sim_chan.max_occupancy c = !max_occ);
      expect (!wakes = !model_wakes))
    ops;
  (* A received, refused or flushed message is not kept reachable; the
     first accepted one stays, as the ring's filler. *)
  Gc.full_major ();
  let queued = List.of_seq (Queue.to_seq q) in
  for k = 0 to !next_key - 1 do
    if k <> !first_accepted then expect (Weak.check messages k = List.mem k queued)
  done;
  ignore (Sys.opaque_identity c);
  !ok

let test_sim_chan_matches_queue =
  qtest "sim channel matches a Stdlib.Queue" gen_chan_script sim_chan_matches_queue

let suite =
  [
    ("spsc push/pop", `Quick, test_spsc_basic);
    ("spsc refuses when full", `Quick, test_spsc_full);
    ("spsc capacity rounds to power of two", `Quick, test_spsc_capacity_rounds_up);
    ("spsc index wraparound", `Quick, test_spsc_wraparound);
    ("spsc cross-domain transfer", `Quick, test_spsc_cross_domain);
    ("spsc cross-domain FIFO order", `Quick, test_spsc_ordering_cross_domain);
    ("spsc cross-domain randomized stress (1M msgs)", `Slow,
      test_spsc_cross_domain_stress);
    ("pool alloc/write/read/free", `Quick, test_pool_alloc_free);
    ("pool stale pointers detected", `Quick, test_pool_stale_detection);
    ("pool double free vs stale free", `Quick, test_pool_double_free_vs_stale);
    ("pool free after crash reclaim is stale", `Quick,
      test_pool_free_after_crash_reclaim_is_stale);
    ("pool generations on slot reuse", `Quick, test_pool_generation_reuse);
    ("pool exhaustion raises", `Quick, test_pool_exhaustion);
    ("pool metered counts its own operations", `Quick, test_pool_metered);
    ("pool sub pointers", `Quick, test_pool_sub_ptr);
    ("pool free_all", `Quick, test_pool_free_all);
    ("pool free_all keeps storage and generations", `Quick,
      test_pool_free_all_keeps_storage);
    ("pool never-allocated slots still fail loudly", `Quick,
      test_pool_never_allocated_slot);
    ("pool memory follows use", `Quick, test_pool_memory_follows_use);
    ("rich pointer chain length", `Quick, test_chain_len);
    ("request db matches replies", `Quick, test_request_db_match);
    ("request db abort actions on peer crash", `Quick, test_request_db_abort_actions);
    ("request db re-entrant abort_peer defers", `Quick,
      test_request_db_abort_reentrant);
    ("request db abort may resubmit", `Quick,
      test_request_db_abort_resubmit_from_abort);
    ("request db never reuses ids", `Quick, test_request_db_ids_never_reused);
    ("request db ids unique across instances", `Quick,
      test_request_db_ids_globally_unique);
    ("request db cyclic aborts hit the depth cap", `Quick,
      test_request_db_abort_cycle_capped);
    ("hook listener chain add/remove", `Quick, test_hook_listener_chain);
    ("hook sampler keeps whole subjects", `Quick,
      test_hook_sampler_keeps_whole_subjects);
    ("hook registry spans domains", `Quick, test_hook_registry_spans_domains);
    ("hook actor/epoch bracket", `Quick, test_hook_actor_epoch_bracket);
    ("pubsub publish/subscribe", `Quick, test_pubsub_basic);
    ("pubsub replays to late subscriber", `Quick, test_pubsub_replay_to_late_subscriber);
    ("pubsub republish after restart", `Quick, test_pubsub_republish_keeps_id);
    ("registry re-registration replaces", `Quick, test_registry_register_replace);
    ("registry unregister unknown id is no-op", `Quick, test_registry_unregister);
    ("pubsub replay order after restart", `Quick,
      test_pubsub_replay_order_after_restart);
    ("sim channel send/recv/drop", `Quick, test_sim_chan_send_recv);
    ("sim channel notifies on empty enqueue", `Quick, test_sim_chan_notify_on_empty_enqueue);
    ("sim channel teardown and revive", `Quick, test_sim_chan_teardown_revive);
    test_pool_invariants;
    test_pool_resident_high_water;
    test_pool_matches_stack_free_list;
    test_request_db_invariants;
    test_request_db_matches_model;
    test_sim_chan_matches_queue;
  ]
