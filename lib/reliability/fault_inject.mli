(** The fault-injection tool.

    The paper injects 100 random code mutations per run with the tool
    used for Rio, Nooks and the MINIX 3 driver-recovery work, and
    observes which component fails and how (Section VI-B). We inject at
    the behavioural level instead: a draw picks the component according
    to the crash distribution the paper reports (Table III — the
    propensities reflect each component's share of active code) and an
    effect class according to the failure modes the paper observed:

    - {e crash} — the dominant outcome; the reincarnation server
      restarts the component and recovery proceeds per Table I;
    - {e hang} — caught by heartbeats and reset;
    - {e device misconfiguration} (drivers only) — "a significant
      slowdown but no crash ... the problem disappeared after we
      manually restarted the driver, which reset the device";
    - {e broken recovery} — the automatic restart leaves the component
      dysfunctional and a manual restart is needed (the 3 TCP, 1 IP and
      1 driver cases of Section VI-B);
    - {e sync hang} — the fault propagates into the unconverted
      synchronous part of the system (the select/file-descriptor merge)
      and only a reboot helps (3 cases in the paper).

    The class propensities are calibrated to Section VI-B's counts and
    documented here; everything downstream of the draw — what actually
    breaks, what recovers, what the applications observe — is emergent
    from the simulated system. *)

type target = T_tcp | T_udp | T_ip | T_pf | T_drv of int

type effect_class =
  | Crash
  | Hang
  | Misconfigure_device  (** Drivers only. *)
  | Broken_recovery
  | Sync_hang

type injection = { target : target; effect : effect_class }

val target_name : target -> string

val draw_many : Newt_sim.Rng.t -> ndrv:int -> runs:int -> injection list
