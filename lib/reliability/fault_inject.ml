module Rng = Newt_sim.Rng

type target = T_tcp | T_udp | T_ip | T_pf | T_drv of int

type effect_class =
  | Crash
  | Hang
  | Misconfigure_device
  | Broken_recovery
  | Sync_hang

type injection = { target : target; effect : effect_class }

let target_name = function
  | T_tcp -> "TCP"
  | T_udp -> "UDP"
  | T_ip -> "IP"
  | T_pf -> "PF"
  | T_drv _ -> "Driver"

(* Table III: which component the run's crash lands in. *)
let component_weights = [ (25, `Tcp); (10, `Udp); (24, `Ip); (25, `Pf); (16, `Drv) ]

(* Per-component effect propensities, calibrated to Section VI-B:
   - 3 of 100 runs ended in hangs of the synchronous select path
     (reboot needed) — drawn uniformly over components;
   - 3 of 25 TCP crashes needed a manual restart to accept connections
     again; 1 IP and 1 driver case likewise;
   - 2 of the driver faults misconfigured the device (slowdown, no
     crash);
   - roughly a tenth of observable faults are hangs rather than
     crashes (caught by heartbeats). *)
let effect_weights ~target =
  let base = [ (84, Crash); (10, Hang); (3, Sync_hang) ] in
  match target with
  | `Tcp -> (12, Broken_recovery) :: base (* ~3 in 25 *)
  | `Ip -> (4, Broken_recovery) :: base (* ~1 in 24 *)
  | `Drv -> (6, Broken_recovery) :: (12, Misconfigure_device) :: base (* ~1 and ~2 in 16 *)
  | `Udp | `Pf -> base

let draw rng ~ndrv =
  assert (ndrv > 0);
  let component = Rng.weighted rng component_weights in
  let effect = Rng.weighted rng (effect_weights ~target:component) in
  let target =
    match component with
    | `Tcp -> T_tcp
    | `Udp -> T_udp
    | `Ip -> T_ip
    | `Pf -> T_pf
    | `Drv -> T_drv (Rng.int rng ndrv)
  in
  { target; effect }

let draw_many rng ~ndrv ~runs = List.init runs (fun _ -> draw rng ~ndrv)
