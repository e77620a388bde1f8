(* Tests for the hardware model: cost parameters, core execution
   (dedicated vs timeshared), halt/wake-up, IPIs. *)

module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Costs = Newt_hw.Costs
module Cpu = Newt_hw.Cpu
module Machine = Newt_hw.Machine

let c = Costs.default

let test_costs_anchors () =
  (* The paper's measured anchor points. *)
  Alcotest.(check int) "hot trap ~150 cycles" 150 c.Costs.trap_hot;
  Alcotest.(check int) "cold trap ~3000 cycles" 3000 c.Costs.trap_cold;
  Alcotest.(check int) "channel enqueue ~30 cycles" 30 c.Costs.channel_enqueue

let test_copy_and_checksum_costs () =
  Alcotest.(check int) "copy 4 bytes = 1 cycle" 1 (Costs.copy_cost c 4);
  Alcotest.(check int) "copy rounds up" 2 (Costs.copy_cost c 5);
  Alcotest.(check int) "copy 1460B" 365 (Costs.copy_cost c 1460);
  Alcotest.(check int) "checksum 1460B" 365 (Costs.checksum_cost c 1460);
  Alcotest.(check int) "sendrec hot" ((2 * 150) + 600) (Costs.kipc_sendrec_cost c ~cold:false);
  Alcotest.(check int) "sendrec cold" ((2 * 3000) + 600) (Costs.kipc_sendrec_cost c ~cold:true)

let test_dedicated_core_serializes () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  let order = ref [] in
  Cpu.exec core ~proc:1 ~cost:100 (fun () -> order := ("a", Engine.now e) :: !order);
  Cpu.exec core ~proc:1 ~cost:50 (fun () -> order := ("b", Engine.now e) :: !order);
  Engine.run e;
  match List.rev !order with
  | [ ("a", ta); ("b", tb) ] ->
      Alcotest.(check int) "first finishes after its cost" 100 ta;
      Alcotest.(check int) "second is serialized" 150 tb
  | _ -> Alcotest.fail "wrong execution order"

let test_dedicated_core_no_switch_cost () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  let done_at = ref 0 in
  Cpu.exec core ~proc:1 ~cost:100 (fun () -> ());
  Cpu.exec core ~proc:2 ~cost:100 (fun () -> done_at := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "no context-switch penalty on dedicated core" 200 !done_at

let test_timeshared_core_switch_cost () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_timeshared_core m in
  let done_at = ref 0 in
  Cpu.exec core ~proc:1 ~cost:100 (fun () -> ());
  Cpu.exec core ~proc:2 ~cost:100 (fun () -> done_at := Engine.now e);
  Engine.run e;
  let expected = 100 + c.Costs.context_switch + c.Costs.cache_refill + 100 in
  Alcotest.(check int) "switch pays context switch + cache refill" expected !done_at

let test_timeshared_same_proc_no_switch () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_timeshared_core m in
  let done_at = ref 0 in
  Cpu.exec core ~proc:1 ~cost:100 (fun () -> ());
  Cpu.exec core ~proc:1 ~cost:100 (fun () -> done_at := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "same process, no penalty" 200 !done_at

let test_halted_core_pays_wakeup () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  (* Do something, then go idle long enough to halt (poll window). *)
  Cpu.exec core ~proc:1 ~cost:10 (fun () -> ());
  Engine.run e;
  let resume_at = c.Costs.poll_window * 3 in
  let done_at = ref 0 in
  ignore
    (Engine.schedule_at e resume_at (fun () ->
         Cpu.exec core ~proc:1 ~cost:100 (fun () -> done_at := Engine.now e)));
  Engine.run e;
  Alcotest.(check int) "wake-up latency added"
    (resume_at + c.Costs.mwait_wakeup + 100)
    !done_at

let test_busy_core_no_wakeup () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  Cpu.exec core ~proc:1 ~cost:10 (fun () -> ());
  Engine.run e;
  (* Work arriving within the poll window: no wake-up penalty. *)
  let resume_at = c.Costs.poll_window / 2 in
  let done_at = ref 0 in
  ignore
    (Engine.schedule_at e resume_at (fun () ->
         Cpu.exec core ~proc:1 ~cost:100 (fun () -> done_at := Engine.now e)));
  Engine.run e;
  Alcotest.(check int) "polling absorbs short gaps" (resume_at + 100) !done_at

let test_utilization () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  Cpu.exec core ~proc:1 ~cost:500 (fun () -> ());
  ignore (Engine.schedule_at e 1000 (fun () -> ()));
  Engine.run e;
  Alcotest.(check (float 0.01)) "50% busy" 0.5 (Cpu.utilization core ~now:1000);
  Alcotest.(check int) "busy cycles" 500 (Cpu.busy_cycles core)

let test_ipi_delivery () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  let fired_at = ref 0 in
  Machine.ipi m ~to_core:core (fun () -> fired_at := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "ipi latency + handler trap"
    (c.Costs.ipi_latency + c.Costs.trap_hot)
    !fired_at

let test_machine_core_allocation () =
  let e = Engine.create () in
  let m = Machine.create e in
  let a = Machine.add_dedicated_core m in
  let b = Machine.add_timeshared_core m in
  Alcotest.(check int) "two cores" 2 (Machine.core_count m);
  Alcotest.(check bool) "kinds" true
    (Cpu.kind a = Cpu.Dedicated && Cpu.kind b = Cpu.Timeshared);
  Alcotest.(check bool) "distinct ids" true (Cpu.id a <> Cpu.id b)

(* {2 Differential test of the core model}

   [Queue_cpu] is the core as a queue of jobs, each one engine event
   that starts the next when it completes: the model [Cpu] replaced
   with a FIFO server in virtual time. Random scripts run against both
   on one engine. *)

module Queue_cpu = struct
  type job = { proc : int; cost : Time.cycles; k : unit -> unit }

  type t = {
    engine : Engine.t;
    costs : Costs.t;
    kind : Cpu.kind;
    jobs : job Queue.t;
    mutable running : bool;
    mutable last_proc : int option;
    mutable idle_since : Time.cycles;
    mutable busy_cycles : Time.cycles;
    mutable polling_cycles : Time.cycles;
  }

  let create engine ~costs ~kind =
    {
      engine;
      costs;
      kind;
      jobs = Queue.create ();
      running = false;
      last_proc = None;
      idle_since = 0;
      busy_cycles = 0;
      polling_cycles = 0;
    }

  let busy t = t.running || not (Queue.is_empty t.jobs)

  let switch_cost t proc =
    match (t.kind, t.last_proc) with
    | Cpu.Timeshared, Some p when p <> proc ->
        t.costs.Costs.context_switch + t.costs.Costs.cache_refill
    | _ -> 0

  let rec start_next t =
    match Queue.take_opt t.jobs with
    | None ->
        t.running <- false;
        t.idle_since <- Engine.now t.engine
    | Some job ->
        t.running <- true;
        let cost = job.cost + switch_cost t job.proc in
        t.last_proc <- Some job.proc;
        t.busy_cycles <- t.busy_cycles + cost;
        ignore
          (Engine.schedule t.engine cost (fun () ->
               job.k ();
               start_next t)
            : Engine.handle)

  let wakeup_penalty t =
    let idle_for = Engine.now t.engine - t.idle_since in
    t.polling_cycles <- t.polling_cycles + min idle_for t.costs.Costs.poll_window;
    if idle_for > t.costs.Costs.poll_window then t.costs.Costs.mwait_wakeup else 0

  let exec t ~proc ~cost k =
    let penalty = if busy t then 0 else wakeup_penalty t in
    Queue.push { proc; cost = cost + penalty; k } t.jobs;
    if not t.running then start_next t

  let charge t ~proc ~cost = exec t ~proc ~cost ignore
end

(* One piece of a script: at cycle [at], [proc] queues [cost] cycles,
   with a continuation ([charge = false]) or without. [then_] is queued
   from inside the continuation, as a server's pool charge follows its
   work. *)
type step = {
  at : int;
  proc : int;
  cost : int;
  charge : bool;
  then_ : (int * int * bool) option;
}

let gen_script =
  let open QCheck2.Gen in
  let window = c.Costs.poll_window in
  (* Idle gaps below, at and above the poll window. *)
  let gap =
    oneof [ pure 0; int_range 1 300; int_range 0 window; pure window; int_range window (3 * window) ]
  in
  let cost = oneof [ pure 0; int_range 1 400; int_range 400 5000 ] in
  let proc = int_range (-1) 2 in
  let step =
    map
      (fun (at, proc, (cost, charge), then_) -> { at; proc; cost; charge; then_ })
      (tup4 gap proc (pair cost bool) (option (triple proc cost bool)))
  in
  (* [at] is drawn as the gap after the previous piece. *)
  let absolute steps =
    snd (List.fold_left_map (fun at s -> (at + s.at, { s with at = at + s.at })) 0 steps)
  in
  pair bool (map absolute (list_size (int_range 1 40) step))

let print_script (timeshared, steps) =
  let work (proc, cost, charge) =
    Printf.sprintf "p%d %s %d" proc (if charge then "charge" else "exec") cost
  in
  let step s =
    Printf.sprintf "@%d %s%s" s.at
      (work (s.proc, s.cost, s.charge))
      (match s.then_ with Some w -> " then " ^ work w | None -> "")
  in
  Printf.sprintf "%s: %s"
    (if timeshared then "timeshared" else "dedicated")
    (String.concat "; " (List.map step steps))

let cpu_matches_queue_model (timeshared, steps) =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = if timeshared then Machine.add_timeshared_core m else Machine.add_dedicated_core m in
  let kind = if timeshared then Cpu.Timeshared else Cpu.Dedicated in
  let oracle = Queue_cpu.create e ~costs:c ~kind in
  (* Completion cycle of every job with a continuation, per model: step
     [i]'s at [2i], its follow-up's at [2i + 1]. *)
  let n = 2 * List.length steps in
  let done_cpu = Array.make n (-1) and done_queue = Array.make n (-1) in
  let agree = ref true in
  let compare_idle () =
    if not (Cpu.busy core || Queue_cpu.busy oracle) then
      agree :=
        !agree
        && Cpu.busy_cycles core = oracle.Queue_cpu.busy_cycles
        && Cpu.polling_cycles core = oracle.Queue_cpu.polling_cycles
        && Cpu.last_proc core = oracle.Queue_cpu.last_proc
  in
  let issue ~exec ~charge ~record i s =
    let queue id (proc, cost, is_charge) k =
      if is_charge then charge ~proc ~cost
      else
        exec ~proc ~cost (fun () ->
            record.(id) <- Engine.now e;
            k ();
            compare_idle ())
    in
    queue (2 * i) (s.proc, s.cost, s.charge) (fun () ->
        Option.iter (fun f -> queue ((2 * i) + 1) f ignore) s.then_)
  in
  List.iteri
    (fun i s ->
      ignore
        (Engine.schedule_at e s.at (fun () ->
             compare_idle ();
             issue ~exec:(Cpu.exec core) ~charge:(Cpu.charge core) ~record:done_cpu i s;
             issue ~exec:(Queue_cpu.exec oracle) ~charge:(Queue_cpu.charge oracle)
               ~record:done_queue i s)
          : Engine.handle))
    steps;
  Engine.run e;
  compare_idle ();
  done_cpu = done_queue && !agree && not (Cpu.busy core || Queue_cpu.busy oracle)

let test_time_cycles_per_second () =
  (* The paper's testbed clock: 1.9 GHz. *)
  Alcotest.(check int) "1.9 GHz" 1_900_000_000 Time.cycles_per_second

let suite =
  [
    ("cost anchors from the paper", `Quick, test_costs_anchors);
    ("copy/checksum/kipc cost helpers", `Quick, test_copy_and_checksum_costs);
    ("dedicated core serializes FIFO", `Quick, test_dedicated_core_serializes);
    ("dedicated core has no switch cost", `Quick, test_dedicated_core_no_switch_cost);
    ("timeshared core pays switch+refill", `Quick, test_timeshared_core_switch_cost);
    ("timeshared same-proc is free", `Quick, test_timeshared_same_proc_no_switch);
    ("halted core pays MWAIT wakeup", `Quick, test_halted_core_pays_wakeup);
    ("polling absorbs short gaps", `Quick, test_busy_core_no_wakeup);
    ("core utilization accounting", `Quick, test_utilization);
    ("IPI delivery latency", `Quick, test_ipi_delivery);
    ("machine core allocation", `Quick, test_machine_core_allocation);
    ("reference clock is 1.9 GHz", `Quick, test_time_cycles_per_second);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"core completes every job as the queue model does"
         ~print:print_script gen_script cpu_matches_queue_model);
  ]
