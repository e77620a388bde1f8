type op = [ `Read | `Write | `Free | `Check ]
type way = [ `Sent | `Received | `Dropped ]

type event =
  | Pool_own of { pool : int; owner : string }
  | Pool_grant of { pool : int }
  | Pool_alloc of { pool : int; slot : int; gen : int }
  | Pool_write of { pool : int; slot : int; gen : int }
  | Pool_read of { pool : int; slot : int; gen : int }
  | Pool_free of { pool : int; slot : int; gen : int }
  | Pool_free_all of { pool : int }
  | Pool_double_free of { ptr : Rich_ptr.t }
  | Pool_stale of { ptr : Rich_ptr.t; op : op }
  | Chan_handoff of { chan : int; ptr : Rich_ptr.t }
  | Chan_receive of { chan : int; ptr : Rich_ptr.t }
  | Chan_dropped of { chan : int; ptr : Rich_ptr.t }
  | Req_submit of { db : int; id : int; peer : int }
  | Req_confirm of { db : int; id : int; known : bool }
  | Req_abort of { db : int; id : int; peer : int }
  | Req_reset of { db : int }
  | Msg_req of { chan : int; id : int; way : way }
  | Msg_conf of { chan : int; id : int; way : way }

type listener = actor:string option -> event -> unit
type token = int

type nkind = N_pool_slot | N_counter

type nevent =
  | N_ring_push of { ring : int; index : int }
  | N_ring_pop of { ring : int; index : int }
  | N_post of { loop : int }
  | N_drain of { loop : int }
  | N_park of { loop : int }
  | N_wake of { loop : int }
  | N_loop_start of { loop : int }
  | N_loop_stop of { loop : int }
  | N_spawn_fence
  | N_lock of { lock : int; acquire : bool }
  | N_access of { kind : nkind; id : int; sub : int; write : bool }

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool; data : bool }

type tcp_cause =
  | T_api
  | T_timer
  | T_crash
  | T_rx of tcp_flags
  | T_tx of tcp_flags

type tcp_event =
  | T_state_change of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      from_s : int;
      to_s : int;
      cause : tcp_cause;
    }
  | T_seg_tx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }
  | T_seg_rx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }

(* {1 The chain}

   One listener list per family, held immutable in an Atomic and
   replaced by compare-and-set, so emission iterates a stable snapshot
   (a listener may add or remove mid-event) and registration is safe
   from any domain. Tokens come from one counter, so [remove] can try
   every family. Each chain carries its family's sampling counters. *)

type 'f chain = {
  listeners : (token * 'f) list Atomic.t;
  seen : int Atomic.t;
  kept : int Atomic.t;
}

let chain () =
  { listeners = Atomic.make []; seen = Atomic.make 0; kept = Atomic.make 0 }

let sim : listener chain = chain ()
let native : (nevent -> unit) chain = chain ()
let tcp : (tcp_event -> unit) chain = chain ()
let next_token = Atomic.make 0

let rec update c f =
  let old = Atomic.get c.listeners in
  if not (Atomic.compare_and_set c.listeners old (f old)) then update c f

let register c f =
  let tok = Atomic.fetch_and_add next_token 1 in
  update c (fun l -> (tok, f) :: l);
  tok

let unregister c tok =
  if List.mem_assoc tok (Atomic.get c.listeners) then
    update c (List.filter (fun (t, _) -> t <> tok))

let add f = register sim f
let native_add f = register native f
let tcp_add f = register tcp f

let remove tok =
  unregister sim tok;
  unregister native tok;
  unregister tcp tok

let armed c = match Atomic.get c.listeners with [] -> false | _ -> true
let enabled () = armed sim
let native_enabled () = armed native
let tcp_enabled () = armed tcp

(* A closure over [ev] would allocate on every delivery. *)
let rec deliver ev = function
  | [] -> ()
  | (_, f) :: rest ->
      f ev;
      deliver ev rest

(* {1 The sampler}

   One process-wide period for every family. A subject is kept or
   dropped whole, by its hash, so a checker sees either its complete
   event stream or none of it: dropping a subject can hide a violation
   but never invent one. [mask + 1] is the period, a power of two so
   the verdict is one AND; mask 0 keeps everything and counts
   nothing. *)

let sample_mask = Atomic.make 0

let set_sample n =
  let n = max 1 n in
  let rec pow2 p = if p >= n then p else pow2 (p * 2) in
  Atomic.set sample_mask (pow2 1 - 1);
  let reset c =
    Atomic.set c.seen 0;
    Atomic.set c.kept 0
  in
  reset sim;
  reset native;
  reset tcp

let sample () = Atomic.get sample_mask + 1
let subject_kept h = h land Atomic.get sample_mask = 0

(* The counted verdict on a sampleable emission, [mask] non-zero. *)
let keep c h mask =
  Atomic.incr c.seen;
  h land mask = 0
  && begin
       Atomic.incr c.kept;
       true
     end

type family = Sim | Native | Tcp

let counts fam =
  let read c = (Atomic.get c.seen, Atomic.get c.kept) in
  match fam with Sim -> read sim | Native -> read native | Tcp -> read tcp

(* {1 Simulator events} *)

let current : string option ref = ref None
let current_epoch : int ref = ref 0

(* The subject hash, or [None] for events that must always be
   delivered: ownership declarations and wholesale resets (they scope
   every kept subject) and the already-detected violations. A pool
   slot is one subject across its lifecycle and channel hand-offs; a
   request id is one across submit, wire messages and confirm, even
   across db/chan instances. *)
let subject_hash = function
  | Pool_own _ | Pool_grant _ | Pool_free_all _ | Req_reset _
  | Pool_double_free _ | Pool_stale _ ->
      None
  | Pool_alloc { pool; slot; _ }
  | Pool_write { pool; slot; _ }
  | Pool_read { pool; slot; _ }
  | Pool_free { pool; slot; _ } ->
      Some (Hashtbl.hash (pool, slot))
  | Chan_handoff { ptr; _ } | Chan_receive { ptr; _ } | Chan_dropped { ptr; _ }
    ->
      Some (Hashtbl.hash (ptr.Rich_ptr.pool, ptr.Rich_ptr.slot))
  | Req_submit { id; _ } | Req_confirm { id; _ } | Req_abort { id; _ }
  | Msg_req { id; _ } | Msg_conf { id; _ } ->
      Some (Hashtbl.hash id)

let emit ev =
  match Atomic.get sim.listeners with
  | [] -> ()
  | listeners ->
      let mask = Atomic.get sample_mask in
      if
        mask = 0
        ||
        match subject_hash ev with None -> true | Some h -> keep sim h mask
      then List.iter (fun (_, f) -> f ~actor:!current ev) listeners

let epoch () = !current_epoch

let with_actor ?epoch name f =
  let prev = !current and prev_epoch = !current_epoch in
  current := Some name;
  (match epoch with Some e -> current_epoch := e | None -> ());
  Fun.protect
    ~finally:(fun () ->
      current := prev;
      current_epoch := prev_epoch)
    f

(* {1 Native events} *)

let native_emit ev =
  match Atomic.get native.listeners with
  | [] -> ()
  | listeners -> deliver ev listeners

(* The subject of an access is its location. An integer mix (murmur3's
   finalizer, constants cut to 62 bits) rather than [Hashtbl.hash]:
   this runs on every shared access of every domain and must not
   allocate. *)
let location_hash kind id sub =
  let tag = match kind with N_pool_slot -> 1 | N_counter -> 2 in
  let h = (((tag * 0x9E3779B1) + id) * 0x85EBCA6B) + sub in
  let h = (h lxor (h lsr 33)) * 0x3F51AFD7ED558CCD in
  let h = (h lxor (h lsr 33)) * 0x04CEB9FE1A85EC53 in
  h lxor (h lsr 33)

let native_access kind ~id ~sub ~write =
  match Atomic.get native.listeners with
  | [] -> ()
  | listeners ->
      let mask = Atomic.get sample_mask in
      if mask = 0 || keep native (location_hash kind id sub) mask then
        deliver (N_access { kind; id; sub; write }) listeners

(* {1 TCP events} *)

let tcp_conn_hash = function
  | T_state_change { lip; lport; rip; rport; _ }
  | T_seg_tx { lip; lport; rip; rport; _ }
  | T_seg_rx { lip; lport; rip; rport; _ } ->
      Hashtbl.hash (lip, lport, rip, rport)

let tcp_emit ev =
  match Atomic.get tcp.listeners with
  | [] -> ()
  | listeners ->
      let mask = Atomic.get sample_mask in
      if mask = 0 || keep tcp (tcp_conn_hash ev) mask then deliver ev listeners
