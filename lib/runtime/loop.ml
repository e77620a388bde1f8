module Time = Newt_sim.Time
module Eventq = Newt_sim.Eventq
module Hook = Newt_channels.Hook

(* One event loop per OCaml domain. Work arrives three ways:

   - the domain-local run queue (continuations a server posts to its
     own core — the common case, no synchronization);
   - the inbox (cross-domain posts: channel doorbells, IPIs, app
     wake-ups), a mutex-protected queue with a condition variable;
   - timers (retransmission, pacing, sweeps), armed only by code
     already running on this domain, so their heap is domain-local.
     Timers due at the same time fire in arming order, as in the
     simulator.

   Idle discipline is the paper's MONITOR/MWAIT debate made concrete:
   spin for [spin_budget] iterations watching the inbox (polling —
   cheap wake-up, burns the core), then park on the condition variable
   (futex-style halt — free, but the producer pays a signal).
   [never_park] keeps the loop polling forever, the other end of the
   Section IV-B trade-off. *)

type stats = {
  index : int;
  pinned : string list;
  parks : int;
  wakes : int;
  posts_remote : int;
  posts_self : int;
  timer_fires : int;
  executed : int;
}

type t = {
  index : int;
  mutable names : string list;
  now : unit -> Time.cycles;
  spin_budget : int;
  never_park : bool;
  run : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;
  inbox : (unit -> unit) Queue.t;
  inbox_size : int Atomic.t;
  mutable parked : bool; (* under [mutex] *)
  stop : bool Atomic.t;
  timers : (unit -> unit) Eventq.t;
  mutable domain_id : int; (* -1 until [run] starts *)
  mutable failure : exn option;
  posts_remote : int Atomic.t;
  mutable posts_self : int;
  mutable parks : int;
  wakes : int Atomic.t;
  mutable timer_fires : int;
  mutable executed : int;
}

let create ~index ~now ?(spin_budget = 2_000) ?(never_park = false) () =
  {
    index;
    names = [];
    now;
    spin_budget;
    never_park;
    run = Queue.create ();
    mutex = Mutex.create ();
    cond = Condition.create ();
    inbox = Queue.create ();
    inbox_size = Atomic.make 0;
    parked = false;
    stop = Atomic.make false;
    timers = Eventq.create ~dummy:ignore ();
    domain_id = -1;
    failure = None;
    posts_remote = Atomic.make 0;
    posts_self = 0;
    parks = 0;
    wakes = Atomic.make 0;
    timer_fires = 0;
    executed = 0;
  }

let index t = t.index
let add_name t name = t.names <- t.names @ [ name ]
let failure t = t.failure
let on_own_domain t = t.domain_id >= 0 && (Domain.self () :> int) = t.domain_id

let post t k =
  if on_own_domain t then begin
    t.posts_self <- t.posts_self + 1;
    Queue.push k t.run
  end
  else begin
    Atomic.incr t.posts_remote;
    Mutex.lock t.mutex;
    Queue.push k t.inbox;
    Atomic.incr t.inbox_size;
    (* Under the mutex: this is the release edge the race detector
       pairs with the drain/wake acquire on the owning domain. *)
    if Hook.native_enabled () then
      Hook.native_emit (Hook.N_post { loop = t.index });
    let was_parked = t.parked in
    if was_parked then Condition.signal t.cond;
    Mutex.unlock t.mutex;
    if was_parked then Atomic.incr t.wakes
  end

(* Timers are armed from the owning domain (servers only set timers for
   themselves) — or, before the loop has started, from the wiring
   thread, in which case the insert travels through the inbox and runs
   as the loop's first work. The cancel thunk must likewise only be
   called from the owning domain; a timer cancelled before its insert
   ran is never inserted. *)
let schedule t delay k =
  let fire_at = t.now () + max 0 delay in
  if on_own_domain t then begin
    let e = Eventq.push t.timers fire_at k in
    fun () -> Eventq.remove e
  end
  else begin
    let cancelled = ref false and entry = ref None in
    post t (fun () ->
        if not !cancelled then entry := Some (Eventq.push t.timers fire_at k));
    fun () ->
      cancelled := true;
      Option.iter Eventq.remove !entry
  end

let next_deadline t =
  if Eventq.is_empty t.timers then None else Some (Eventq.min_time t.timers)

let fire_due t =
  (not (Eventq.is_empty t.timers))
  &&
  let now = t.now () in
  let due () = (not (Eventq.is_empty t.timers)) && Eventq.min_time t.timers <= now in
  let fired = due () in
  while due () do
    t.timer_fires <- t.timer_fires + 1;
    Queue.push (Eventq.pop t.timers) t.run
  done;
  fired

let take_inbox t =
  if Atomic.get t.inbox_size > 0 then begin
    Mutex.lock t.mutex;
    Queue.transfer t.inbox t.run;
    Atomic.set t.inbox_size 0;
    if Hook.native_enabled () then
      Hook.native_emit (Hook.N_drain { loop = t.index });
    Mutex.unlock t.mutex;
    true
  end
  else false

let park t ~deadline =
  match deadline with
  | None ->
      (* Lost-wakeup audit (ISSUE 8): there is no window between the
         final emptiness check and blocking, because both sides hold
         the same mutex. The spin in [idle] reads [inbox_size] without
         the lock and can go stale the instant it gives up — but the
         decision that matters is re-taken here: [post] can only
         interleave its push + signal either (a) before our
         [Mutex.lock], in which case the re-check below sees the
         non-empty inbox and we never wait, or (b) after we are inside
         [Condition.wait] (which releases the mutex atomically), in
         which case [t.parked] is already true, the poster signals,
         and the wait returns. A signal can NOT land between the check
         and the wait: the poster cannot take the mutex in that
         window. The [while] re-check also covers spurious wakeups and
         the stop flag, which [request_stop] raises under the same
         mutex before signalling. *)
      Mutex.lock t.mutex;
      if Queue.is_empty t.inbox && not (Atomic.get t.stop) then begin
        t.parked <- true;
        t.parks <- t.parks + 1;
        if Hook.native_enabled () then
          Hook.native_emit (Hook.N_park { loop = t.index });
        while Queue.is_empty t.inbox && not (Atomic.get t.stop) do
          Condition.wait t.cond t.mutex
        done;
        t.parked <- false;
        (* Acquire edge: we resumed because a poster signalled under
           this mutex; join on the inbox clock. *)
        if Hook.native_enabled () then
          Hook.native_emit (Hook.N_wake { loop = t.index })
      end;
      Mutex.unlock t.mutex
  | Some at ->
      (* The stdlib has no timed condition wait: sleep in short slices,
         re-checking the doorbell, until the deadline is close. *)
      let remaining = Time.to_seconds (at - t.now ()) in
      if remaining > 0. then begin
        t.parks <- t.parks + 1;
        Unix.sleepf (Float.min remaining 0.0002)
      end

let idle t =
  let deadline = next_deadline t in
  let rec spin i =
    if Atomic.get t.stop then ()
    else if Atomic.get t.inbox_size > 0 then ()
    else if match deadline with Some at -> t.now () >= at | None -> false then
      ()
    else if t.never_park || i < t.spin_budget then begin
      Domain.cpu_relax ();
      spin (i + 1)
    end
    else park t ~deadline
  in
  spin 0

let run t =
  t.domain_id <- (Domain.self () :> int);
  if Hook.native_enabled () then
    Hook.native_emit (Hook.N_loop_start { loop = t.index });
  (try
     while not (Atomic.get t.stop) do
       match Queue.take_opt t.run with
       | Some k ->
           t.executed <- t.executed + 1;
           k ()
       | None ->
           if take_inbox t then ()
           else if fire_due t then ()
           else idle t
     done
   with e -> t.failure <- Some e);
  if Hook.native_enabled () then
    Hook.native_emit (Hook.N_loop_stop { loop = t.index });
  t.domain_id <- -1

let request_stop t =
  Atomic.set t.stop true;
  Mutex.lock t.mutex;
  Condition.signal t.cond;
  Mutex.unlock t.mutex

let stats t =
  {
    index = t.index;
    pinned = t.names;
    parks = t.parks;
    wakes = Atomic.get t.wakes;
    posts_remote = Atomic.get t.posts_remote;
    posts_self = t.posts_self;
    timer_fires = t.timer_fires;
    executed = t.executed;
  }
