type t = {
  engine : Newt_sim.Engine.t;
  exec : Newt_sim.Exec.t;
  costs : Costs.t;
  mutable cores : Cpu.t list; (* newest first *)
  mutable next_id : int;
}

let create ?(costs = Costs.default) ?exec engine =
  let exec = match exec with Some e -> e | None -> Newt_sim.Exec.sim engine in
  { engine; exec; costs; cores = []; next_id = 0 }

let engine t = t.engine
let exec t = t.exec
let costs t = t.costs

let add_core t kind =
  let core =
    Cpu.create t.engine ~exec:t.exec ~costs:t.costs ~id:t.next_id ~kind
  in
  t.next_id <- t.next_id + 1;
  t.cores <- core :: t.cores;
  core

let add_dedicated_core t = add_core t Cpu.Dedicated
let add_timeshared_core t = add_core t Cpu.Timeshared
let core_count t = t.next_id

let ipi t ~to_core k =
  if Newt_sim.Exec.is_native t.exec then
    (* A real cross-domain kick: the target domain's doorbell plays the
       role of the IPI. *)
    Newt_sim.Exec.post t.exec ~core:(Cpu.id to_core) k
  else
    ignore
      (Newt_sim.Engine.schedule t.engine t.costs.Costs.ipi_latency (fun () ->
           (* The interrupt handler itself is charged to a pseudo-process
              (-1) so a timeshared core accounts a switch into the kernel. *)
           Cpu.exec to_core ~proc:(-1) ~cost:t.costs.Costs.trap_hot k))
