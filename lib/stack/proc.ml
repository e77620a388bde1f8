module Engine = Newt_sim.Engine
module Exec = Newt_sim.Exec
module Time = Newt_sim.Time
module Stats = Newt_sim.Stats
module Trace = Newt_sim.Trace
module Cpu = Newt_hw.Cpu
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Sim_chan = Newt_channels.Sim_chan
module Hook = Newt_channels.Hook
module Pool = Newt_channels.Pool

type handler = Msg.t -> Time.cycles * (unit -> unit)

type t = {
  machine : Machine.t;
  name : string;
  pid : int;
  mutable core : Cpu.t;
  stats : Stats.t;
  trace : Trace.t option;
  mutable rx : (Msg.t Sim_chan.t * handler ref) array;  (* service order *)
  mutable alive : bool;
  mutable hung : bool;
  mutable updating : bool;
  mutable draining : bool;
  mutable incarnation : int;
  mutable version : int;
  mutable on_crash : unit -> unit;
  mutable on_restart : fresh:bool -> unit;
  mutable pool_ops : int;  (* pool operations charged so far *)
  wake_posted : bool Atomic.t;
      (* Native mode: a wake has been posted to the owning domain and
         not yet consumed — dedupes producer-side doorbells. *)
}

let next_pid = ref 100

let create machine ~name ~core ?trace () =
  let pid = !next_pid in
  incr next_pid;
  {
    machine;
    name;
    pid;
    core;
    stats = Stats.create ();
    trace;
    rx = [||];
    alive = true;
    hung = false;
    updating = false;
    draining = false;
    incarnation = 0;
    version = 1;
    on_crash = (fun () -> ());
    on_restart = (fun ~fresh:_ -> ());
    pool_ops = 0;
    wake_posted = Atomic.make false;
  }

let name t = t.name
let pid t = t.pid
let core t = t.core
let stats t = t.stats
let incarnation t = t.incarnation
let alive t = t.alive
let responsive t = t.alive && not t.hung
let pool_ops t = t.pool_ops

(* Pool operations are priced where they happen: every piece of work
   the runtime runs for a server is metered ({!Pool.metered}), and the
   [Costs.pool_op] of each operation it performed is charged on the
   server's core right after it. *)
let charge_pool t n =
  if n > 0 then begin
    t.pool_ops <- t.pool_ops + n;
    if not (Exec.is_native (Machine.exec t.machine)) then
      Cpu.exec t.core ~proc:t.pid ~cost:(n * (Machine.costs t.machine).Costs.pool_op) ignore
  end

(* Crash and restart notifications are recovery, not data-path work:
   their pool operations are not charged, also when a notification runs
   inside another server's metered work (DESIGN §3c). *)
let unmetered f = ignore (Pool.metered f : int * unit)

let record t msg =
  match t.trace with
  | Some tr ->
      Trace.record tr
        ~at:(Exec.now (Machine.exec t.machine))
        ~subsystem:t.name msg
  | None -> ()

(* The verification hooks mutate listener-chain globals and are only
   installed by the single-threaded simulator harnesses; skip the
   bracketing entirely when no listener is registered so native domains
   never touch the shared state. *)
let with_actor ~epoch name k =
  if Hook.enabled () then Hook.with_actor ~epoch name k else k ()

(* All work a server runs is bracketed with its identity, so pool and
   channel operations it performs are attributed to it by the
   sanitizer hook. *)
let guard t k =
  let inc = t.incarnation in
  fun () ->
    if t.alive && (not t.hung) && t.incarnation = inc then
      let n, () = Pool.metered (fun () -> with_actor ~epoch:inc t.name k) in
      charge_pool t n

let exec t ~cost k =
  if t.alive && not t.hung then Cpu.exec t.core ~proc:t.pid ~cost (guard t k)

let after t delay ~cost k =
  let inc = t.incarnation in
  let (_cancel : unit -> unit) =
    Exec.schedule (Machine.exec t.machine) ~core:(Cpu.id t.core) delay
      (fun () ->
        if t.alive && (not t.hung) && t.incarnation = inc then
          Cpu.exec t.core ~proc:t.pid ~cost (guard t k))
  in
  ()

let emit_transfers chan msg mk =
  if Hook.enabled () then
    List.iter
      (fun ptr -> Hook.emit (mk ~chan:(Sim_chan.id chan) ~ptr))
      (Msg.ptrs msg)

(* Mirror the request/confirm content of a message onto the hook
   stream so the dynamic protocol checker can pair hand-offs with
   deliveries per request id. *)
let emit_protocol chan msg way =
  if Hook.enabled () then
    match Msg.protocol msg with
    | `Req id -> Hook.emit (Hook.Msg_req { chan = Sim_chan.id chan; id; way })
    | `Conf ids ->
        List.iter
          (fun id ->
            Hook.emit (Hook.Msg_conf { chan = Sim_chan.id chan; id; way }))
          ids
    | `Other -> ()

(* Per-message receive overhead: dequeue, demultiplex/validate, and the
   cross-core cache-line stall. *)
let recv_cost c =
  c.Costs.channel_dequeue + c.Costs.channel_demux + c.Costs.cacheline_transfer

let rec drain t =
  if t.alive && (not t.hung) && not t.updating then begin
    (* Round-robin: serve the first channel with a message and move it
       to the back, in place, so no channel starves. *)
    let rx = t.rx in
    let n = Array.length rx in
    let rec find i =
      if i = n then t.draining <- false
      else
        let ((chan, handler) as entry) = rx.(i) in
        match Sim_chan.recv chan with
        | Some msg ->
            Array.blit rx (i + 1) rx i (n - 1 - i);
            rx.(n - 1) <- entry;
            serve t chan msg !handler
        | None -> find (i + 1)
    in
    find 0
  end
  else t.draining <- false

and serve t chan msg handler =
  if Hook.enabled () then
    Hook.with_actor ~epoch:t.incarnation t.name (fun () ->
        emit_transfers chan msg (fun ~chan ~ptr ->
            Hook.Chan_receive { chan; ptr });
        emit_protocol chan msg `Received);
  let costs = Machine.costs t.machine in
  let n, (work_cost, effect) =
    Pool.metered (fun () ->
        with_actor ~epoch:t.incarnation t.name (fun () -> handler msg))
  in
  t.pool_ops <- t.pool_ops + n;
  Cpu.exec t.core ~proc:t.pid
    ~cost:(recv_cost costs + work_cost + (n * costs.Costs.pool_op))
    (let inc = t.incarnation in
     fun () ->
       if t.alive && (not t.hung) && t.incarnation = inc then begin
         let n, () = Pool.metered (fun () -> with_actor ~epoch:inc t.name effect) in
         charge_pool t n;
         drain t
       end)

let wake t =
  if t.alive && (not t.hung) && (not t.updating) && not t.draining then begin
    t.draining <- true;
    drain t
  end

(* Producer-side doorbell: under native execution the channel's notify
   hook fires on the *sender's* domain, so instead of draining there we
   post a deduplicated wake to the domain that owns this server's core.
   Clearing [wake_posted] before draining keeps the classic
   check-then-sleep race closed: a push that lands mid-drain posts a
   fresh wake. *)
let notify t =
  let exec = Machine.exec t.machine in
  if Exec.is_native exec then begin
    if not (Atomic.exchange t.wake_posted true) then
      Exec.post exec ~core:(Cpu.id t.core) (fun () ->
          Atomic.set t.wake_posted false;
          wake t)
  end
  else wake t

let add_rx t chan handler =
  (match Array.find_opt (fun (c, _) -> c == chan) t.rx with
  | Some (_, href) -> href := handler
  | None ->
      t.rx <- Array.append t.rx [| (chan, ref handler) |];
      Sim_chan.set_notify chan (fun () -> notify t));
  if not (Sim_chan.is_empty chan) then notify t

(* The handoff is announced before [Sim_chan.send]: enqueueing can wake
   the consumer synchronously, so its [Chan_receive] events would
   otherwise precede our [Chan_handoff] and confuse in-flight
   accounting.  A refused send retracts the announcement with
   [Chan_dropped]. *)
(* Native-ablation hook: extra per-send work modelling a design the
   cost model also ablates (a kernel trap per message, a payload copy
   per hop). Set once before the domains spawn; None in every simulated
   run. *)
let send_overhead : (unit -> unit) option ref = ref None
let set_send_overhead f = send_overhead := f

let send t chan msg =
  (match !send_overhead with Some f -> f () | None -> ());
  emit_transfers chan msg (fun ~chan ~ptr -> Hook.Chan_handoff { chan; ptr });
  emit_protocol chan msg `Sent;
  let ok = Sim_chan.send chan msg in
  if not ok then begin
    Stats.incr t.stats "tx.dropped";
    emit_transfers chan msg (fun ~chan ~ptr -> Hook.Chan_dropped { chan; ptr });
    emit_protocol chan msg `Dropped
  end;
  ok

let set_on_crash t f = t.on_crash <- f
let set_on_restart t f = t.on_restart <- f

let crash t =
  if t.alive then begin
    record t "CRASH";
    t.alive <- false;
    t.hung <- false;
    t.updating <- false;
    t.draining <- false;
    unmetered (fun () -> with_actor ~epoch:t.incarnation t.name t.on_crash)
  end

let hang t =
  if t.alive then begin
    record t "HANG";
    t.hung <- true;
    t.draining <- false
  end

let restart t =
  record t "RESTART";
  t.incarnation <- t.incarnation + 1;
  t.alive <- true;
  t.hung <- false;
  t.updating <- false;
  t.draining <- false;
  unmetered (fun () ->
      with_actor ~epoch:t.incarnation t.name (fun () ->
          t.on_restart ~fresh:false));
  wake t

let start_fresh t =
  unmetered (fun () ->
      with_actor ~epoch:t.incarnation t.name (fun () -> t.on_restart ~fresh:true));
  wake t

(* A restart procedure gone wrong can revive the server on another
   component's core (Section VI-B territory); the continuous checker is
   what should notice. *)
let migrate t core = t.core <- core

let begin_update t = t.updating <- true

let finish_update t =
  t.updating <- false;
  t.version <- t.version + 1;
  wake t

let version t = t.version
let updating t = t.updating
