type kind = Dedicated | Timeshared

(* A core is a FIFO server in virtual time. Work is placed on the
   core's timeline when it is queued: it starts at [free_at] (or now,
   if the core has gone idle), pays its switch cost and any MWAIT
   wake-up there, and pushes [free_at] past itself. Only completions
   that run a continuation become events, one per job on the core's
   lane; a charge just moves [free_at]. *)
type t = {
  engine : Newt_sim.Engine.t;
  exec_backend : Newt_sim.Exec.t;
  costs : Costs.t;
  id : int;
  kind : kind;
  completions : Newt_sim.Engine.lane;  (* continuations, at their completion times *)
  mutable free_at : Time.cycles;
      (* When the queued work ends; once it is past, the time the core
         went idle, which decides whether it has halted. *)
  mutable last_proc : int;  (* [no_proc] before any work *)
  mutable busy_cycles : Time.cycles;
  mutable polling_cycles : Time.cycles;
}

(* Not a process id: [-1] is the interrupt pseudo-process. *)
let no_proc = min_int

let create engine ~exec ~costs ~id ~kind =
  {
    engine;
    exec_backend = exec;
    costs;
    id;
    kind;
    completions = Newt_sim.Engine.lane engine;
    free_at = 0;
    last_proc = no_proc;
    busy_cycles = 0;
    polling_cycles = 0;
  }

let id t = t.id
let kind t = t.kind

let busy t =
  t.free_at > Newt_sim.Engine.now t.engine
  || Newt_sim.Engine.lane_length t.completions > 0

let busy_cycles t = t.busy_cycles
let polling_cycles t = t.polling_cycles
let last_proc t = if t.last_proc = no_proc then None else Some t.last_proc

let utilization t ~now =
  if now <= 0 then 0.0 else float_of_int t.busy_cycles /. float_of_int now

let switch_cost t proc =
  match t.kind with
  | Timeshared when t.last_proc <> proc && t.last_proc <> no_proc ->
      t.costs.Costs.context_switch + t.costs.Costs.cache_refill
  | Dedicated | Timeshared -> 0

(* Queue [cost] cycles for [proc] behind all earlier work and return
   when they complete. Work reaching an idle core first accounts the
   gap: the core polled for up to the poll window, and past it had
   halted with MWAIT, so the work also pays the wake-up latency. *)
let place t ~proc ~cost =
  assert (cost >= 0);
  let now = Newt_sim.Engine.now t.engine in
  let start, wakeup =
    if t.free_at > now then (t.free_at, 0)
    else begin
      let idle_for = now - t.free_at in
      let window = t.costs.Costs.poll_window in
      t.polling_cycles <- t.polling_cycles + min idle_for window;
      (now, if idle_for > window then t.costs.Costs.mwait_wakeup else 0)
    end
  in
  let cost = cost + wakeup + switch_cost t proc in
  t.last_proc <- proc;
  t.busy_cycles <- t.busy_cycles + cost;
  t.free_at <- start + cost;
  t.free_at

let exec t ~proc ~cost k =
  if Newt_sim.Exec.is_native t.exec_backend then begin
    (* Native mode: no cycle accounting — real cores charge real time.
       The continuation lands on the FIFO run queue of the domain that
       owns this core, which also flattens the drain recursion that the
       simulated path threads through the event queue. *)
    ignore proc;
    Newt_sim.Exec.post t.exec_backend ~core:t.id k
  end
  else Newt_sim.Engine.schedule_lane t.completions (place t ~proc ~cost) k

let charge t ~proc ~cost =
  if not (Newt_sim.Exec.is_native t.exec_backend) then
    ignore (place t ~proc ~cost : Time.cycles)
