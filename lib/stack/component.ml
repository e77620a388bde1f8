module Time = Newt_sim.Time
module Stats = Newt_sim.Stats
module Cpu = Newt_hw.Cpu
module Machine = Newt_hw.Machine
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Pubsub = Newt_channels.Pubsub
module Request_db = Newt_channels.Request_db
module Hook = Newt_channels.Hook

type producer_end = {
  chan : Msg.t Sim_chan.t;
  policy : [ `Drop | `Block ];
  shared : bool;
}

module Defaults = struct
  let heartbeat_period = Time.of_seconds 0.1
  let restart_delay = Time.of_seconds 0.12
end

type t = {
  machine : Machine.t;
  proc : Proc.t;
  directory : Pubsub.t option;
  mutable rx : Msg.t Sim_chan.t list; (* registration order *)
  mutable tx : producer_end list; (* declared producer endpoints *)
  mutable exports : (string * Msg.t Sim_chan.t) list;
  mutable pools : Pool.t list;
  mutable db_resets : (unit -> unit) list;
  mutable crash_hooks : (unit -> unit) list;
  mutable restart_hooks : (string option * (fresh:bool -> unit)) list;
  mutable restarted_hooks : (string option * (unit -> unit)) list;
  mutable crash_after : string option;
      (* armed crash-point injector: die right after this recovery step *)
  archive : (string, int) Hashtbl.t;
}

(* Internal control flow for the crash-point injector: unwinds the
   rest of the recovery procedure once the armed step has run. *)
exception Crashed_mid_recovery

let publish_export t (key, chan) =
  match t.directory with
  | Some dir ->
      Pubsub.publish dir ~key ~creator:(Proc.pid t.proc)
        ~chan_id:(Sim_chan.id chan)
  | None -> ()

(* Tearing a channel down discards whatever is queued: tell the
   sanitizer those hand-offs will never complete, so the senders'
   buffers are not considered in flight forever. *)
let drop_queued chan =
  if Hook.enabled () then begin
    let rec go () =
      match Sim_chan.recv chan with
      | Some msg ->
          List.iter
            (fun ptr ->
              Hook.emit (Hook.Chan_dropped { chan = Sim_chan.id chan; ptr }))
            (Msg.ptrs msg);
          (match Msg.protocol msg with
          | `Req id ->
              Hook.emit
                (Hook.Msg_req { chan = Sim_chan.id chan; id; way = `Dropped })
          | `Conf ids ->
              List.iter
                (fun id ->
                  Hook.emit
                    (Hook.Msg_conf { chan = Sim_chan.id chan; id; way = `Dropped }))
                ids
          | `Other -> ());
          go ()
      | None -> ()
    in
    go ()
  end

(* The generic death: server-specific resets first (they may still bank
   counters into the archive), then the recoverable-resource teardown. *)
let generic_crash t () =
  List.iter (fun f -> f ()) t.crash_hooks;
  List.iter (fun reset -> reset ()) t.db_resets;
  List.iter Pool.free_all t.pools;
  List.iter
    (fun chan ->
      drop_queued chan;
      Sim_chan.tear_down chan)
    t.rx

(* A recovery step just completed; if the injector is armed for this
   step, consume the arming, crash the component (running the full
   generic teardown) and unwind the rest of the recovery. *)
let checkpoint t step =
  match t.crash_after with
  | Some armed when armed = step ->
      t.crash_after <- None;
      Proc.crash t.proc;
      raise Crashed_mid_recovery
  | _ -> ()

let step_revive = "revive-channels"
let step_republish = "republish-exports"

let generic_restart t ~fresh =
  try
    List.iter Sim_chan.revive t.rx;
    checkpoint t step_revive;
    List.iter
      (fun (step, f) ->
        f ~fresh;
        Option.iter (checkpoint t) step)
      t.restart_hooks;
    List.iter (publish_export t) t.exports;
    checkpoint t step_republish;
    (* Post-publish hooks see the fully republished directory — the
       continuous verifier's sabotage handles live here. *)
    List.iter
      (fun (step, f) ->
        f ();
        Option.iter (checkpoint t) step)
      t.restarted_hooks
  with Crashed_mid_recovery -> ()

let create machine ~name ~core ?directory () =
  let proc = Proc.create machine ~name ~core () in
  let t =
    {
      machine;
      proc;
      directory;
      rx = [];
      tx = [];
      exports = [];
      pools = [];
      db_resets = [];
      crash_hooks = [];
      restart_hooks = [];
      restarted_hooks = [];
      crash_after = None;
      archive = Hashtbl.create 16;
    }
  in
  Proc.set_on_crash proc (generic_crash t);
  Proc.set_on_restart proc (generic_restart t);
  t

let machine t = t.machine
let proc t = t.proc
let name t = Proc.name t.proc
let pid t = Proc.pid t.proc
let core t = Proc.core t.proc
let alive t = Proc.alive t.proc
let responsive t = Proc.responsive t.proc
let incarnation t = Proc.incarnation t.proc

let consume t chan handler =
  t.rx <- t.rx @ [ chan ];
  Proc.add_rx t.proc chan handler

let produce t ?(policy = `Drop) ?(shared = false) chan =
  let entry = { chan; policy; shared } in
  if List.exists (fun e -> e.chan == chan) t.tx then
    t.tx <- List.map (fun e -> if e.chan == chan then entry else e) t.tx
  else t.tx <- t.tx @ [ entry ]

let export t ~key chan =
  t.exports <- t.exports @ [ (key, chan) ];
  publish_export t (key, chan)

let register_pool t pool =
  t.pools <- t.pools @ [ pool ];
  Hook.emit (Hook.Pool_own { pool = Pool.id pool; owner = Proc.name t.proc })

let produced t = List.map (fun e -> (e.chan, e.policy, e.shared)) t.tx
let consumed t = t.rx
let exports t = t.exports
let pools t = t.pools
let on_crash t f = t.crash_hooks <- t.crash_hooks @ [ f ]
let on_restart t ?step f = t.restart_hooks <- t.restart_hooks @ [ (step, f) ]

let on_restarted t ?step f =
  t.restarted_hooks <- t.restarted_hooks @ [ (step, f) ]

let recovery_steps t =
  [ step_revive ]
  @ List.filter_map fst t.restart_hooks
  @ [ step_republish ]
  @ List.filter_map fst t.restarted_hooks

let arm_crash_after t ~step = t.crash_after <- Some step
let disarm_crash t = t.crash_after <- None
let armed_crash t = t.crash_after
let crash t = Proc.crash t.proc
let hang t = Proc.hang t.proc
let restart t = Proc.restart t.proc
let migrate t core = Proc.migrate t.proc core

module Db = struct
  type 'a t = { mutable db : 'a Request_db.t }

  let submit t ~peer ~payload ~abort = Request_db.submit t.db ~peer ~payload ~abort
  let complete t id = Request_db.complete t.db id
  let abort_peer t ~peer = Request_db.abort_peer t.db ~peer
end

let create_db t =
  let db = { Db.db = Request_db.create () } in
  t.db_resets <-
    t.db_resets
    @ [
        (fun () ->
          (* Announce the wholesale drop before the records vanish so
             the protocol checker closes their obligations as
             owner-died, not as unresolved. *)
          Request_db.reset_signal db.Db.db;
          db.Db.db <- Request_db.create ());
      ];
  db

let archive_add t key n =
  let prev = match Hashtbl.find_opt t.archive key with Some v -> v | None -> 0 in
  Hashtbl.replace t.archive key (prev + n)

let archived t key =
  match Hashtbl.find_opt t.archive key with Some v -> v | None -> 0
