(** Drivers for every table and figure of the paper's evaluation
    (Section VI). Each function returns structured data; the [bin] and
    [bench] executables format it like the paper does. *)

(** {1 Table II — peak outgoing TCP performance} *)

type table2_row = {
  label : string;
  paper_gbps : string;  (** The value the paper reports. *)
  measured_gbps : float;
  bottleneck : string;
}

val table_ii : ?costs:Newt_hw.Costs.t -> unit -> table2_row list

(** {1 Cross-validation: the event-driven stack at peak load} *)

type event_peak = {
  goodput_gbps : float;  (** Achieved by the packet-level simulation. *)
  capacity_prediction_gbps : float;  (** What the analytic model says. *)
  per_link_mbps : float list;
  tcp_util : float;  (** Utilization of the TCP server's core. *)
  ip_util : float;
  pf_util : float;
  drv_util : float;  (** Busiest driver core. *)
  segs_per_unit : float;
      (** Segments the TCP engine emitted per 1460 bytes delivered —
          1.0 when every segment is full. *)
}

val split_peak_event_sim :
  ?nics:int -> ?duration:float -> ?coalesce_drivers:bool -> unit -> event_peak
(** Drive the full packet-level simulator to saturation (default: five
    1 Gbps links, 1 s) and compare against the Table II capacity model.
    The paper's qualitative claims fall out: the TCP server saturates
    first, IP has headroom despite handling each packet three times,
    and the drivers are nearly idle. *)

val single_server_event_sim : ?nics:int -> ?duration:float -> unit -> float * float
(** The single-server topology (Table II line 4) at packet level: the
    same protocol code as the split stack deployed as one merged server
    behind the SYSCALL server. Returns (goodput Gbps, merged-server core
    utilization). *)

(** {2 Pool operations: what a server is charged, what the model counts} *)

type pool_accounting = {
  charged_per_unit : float;
      (** Pool operations the stage's server was charged
          ({!Newt_stack.Proc.pool_ops}) per 1460 bytes delivered. *)
  model_per_segment : float;
      (** The {!Newt_stack.Capacity} stage's [pool_ops_per_segment]. *)
}

val pool_accounting :
  ?nics:int -> ?duration:float -> [ `Split_tcp | `Single ] -> pool_accounting
(** Run the split stack ({!split_peak_event_sim}) or the single server
    ({!single_server_event_sim}) at saturation (default five links,
    0.2 s) and account for the pool operations of its TCP stage, the
    split TCP server or the merged stack server, over the whole run. *)

type minix_result = {
  minix_mbps : float;
  minix_core_util : float;
  sync_ipcs_per_sec : float;
      (** "A multiserver system under heavy load easily generates
          hundreds of thousands of messages per second" (§III-A). *)
  minix_lossless : bool;
}

val minix_event_sim : ?duration:float -> unit -> minix_result
(** Run the packet-level MINIX 3 baseline (Table II line 1): one
    timeshared core, synchronous kernel IPC with cold traps and context
    switches on every hop, copies and software checksums everywhere,
    one packet per driver round trip. The ~hundred-megabit ceiling is
    emergent. *)

(** {1 Figures 4 and 5 — bitrate across crashes} *)

type crash_trace = {
  points : (float * float) array;  (** (seconds, Mbps) per 100 ms bin. *)
  duplicate_segments : int;  (** Seen by the receiver. *)
  sender_retransmits : int;
  lost_segments : int;
      (** Receiver-side gaps never filled (0 = no loss). *)
  component_restarts : int;
}

val figure_ip_crash :
  ?seed:int ->
  ?crash_at:float ->
  ?duration:float ->
  ?nic_reset:Newt_sim.Time.cycles ->
  ?verify:Newt_verify.Continuous.t ->
  unit ->
  crash_trace
(** A single ~1 Gbps TCP connection; the IP server is killed at
    [crash_at] (default 4 s) over [duration] (default 10 s) — Figure 4.
    The visible gap is the NIC reset the crash forces. With [verify]
    the static checker re-runs against the live topology after every
    reincarnation, and the run tail is extended so the quiesced world
    can be leak-checked ([Continuous.end_run ~check_leaks:true]). *)

val recovery_gap : ?threshold_mbps:float -> crash_at:float -> crash_trace -> float
(** Seconds from the crash until the bitrate is back above the
    threshold. *)

type reset_sweep_point = {
  reset_time_s : float;  (** Device reset / link retraining time. *)
  outage_s : float;  (** Resulting Figure 4 outage. *)
  duplicates : int;
}

val nic_reset_sweep : ?seed:int -> unit -> reset_sweep_point list
(** The paper's "restart-aware hardware would allow less disruptive
    recovery" (Section V-D), quantified: the outage tracks the device
    reset time, not the software restart. *)

val figure_pf_crash :
  ?seed:int ->
  ?rules:int ->
  ?crash_at:float list ->
  ?duration:float ->
  ?verify:Newt_verify.Continuous.t ->
  unit ->
  crash_trace
(** Packet-filter crashes (default at 6 s and 12 s over 18 s) while
    recovering a [rules]-entry configuration (default 1024) — Figure 5.
    No packets are lost because IP resubmits unanswered filter
    requests. [verify] as in {!figure_ip_crash}. *)

(** {1 Tables III and IV — the fault-injection campaign} *)

type run_outcome = {
  injected : Newt_reliability.Fault_inject.injection;
  ssh_survived : bool;  (** The established session kept working. *)
  reachable_auto : bool;  (** New connections accepted without help. *)
  reachable_after_manual : bool;
  udp_transparent : bool;
  needed_reboot : bool;
  fully_transparent : bool;
}

type pf_shard_totals = {
  pf_shard : int;
  verdicts : int;
  blocked_packets : int;
  conntrack_expired : int;
}

type campaign = {
  runs : run_outcome list;
  pf_counters : pf_shard_totals array;
      (** Per-PF-shard verdict totals summed over all runs (one entry
          when the campaign ran the singleton filter). *)
  (* Table III *)
  crashes_tcp : int;
  crashes_udp : int;
  crashes_ip : int;
  crashes_pf : int;
  crashes_drv : int;
  (* Table IV *)
  fully_transparent : int;
  reachable : int;  (** Automatically. *)
  manually_fixed : int;
  broke_tcp : int;
  transparent_udp : int;
  reboots : int;
}

val fault_campaign :
  ?runs:int ->
  ?seed:int ->
  ?verify:Newt_verify.Continuous.t ->
  ?break_recovery:Host.component * Host.sabotage ->
  ?pf_shards:int ->
  unit ->
  campaign
(** Default 100 runs, as in the paper. Each run boots a fresh world
    with an SSH-like session, a DNS-like resolver, an iperf flow and an
    inbound listener, injects one observable fault, lets the
    reincarnation machinery recover, and probes the consequences.

    With [verify] every run re-runs the static checker against the live
    post-restart topology after each reincarnation and closes with
    [Continuous.end_run] (leak-checked unless the run ended frozen).
    [break_recovery] installs a deliberate recovery defect
    ({!Host.sabotage}) on the named component in every run — the
    continuous checker, not the traffic, is what must catch it.
    [pf_shards] (default 1) runs every host with a sharded packet
    filter; the per-shard verdict totals land in [pf_counters]. *)

(** {1 Section IV-B — MWAIT wake-up latency vs polling} *)

type latency_point = {
  poll_window_us : float;
      (** How long an idle server polls before halting its core. *)
  mean_rtt_us : float;  (** ICMP echo RTT through the idle stack. *)
  pings : int;
  awake_fraction : float;
      (** Fraction of OS-core time spent awake (busy + polling) — the
          energy side: "constant checking keeps consuming energy". *)
}

val mwait_latency_ablation : ?seed:int -> unit -> latency_point list
(** Ping the idle host with increasing poll windows. With a zero window
    every hop pays the kernel-mediated MWAIT wake-up; with a large one
    the cores spin and absorb it — the energy/latency trade-off of
    Section IV-B. *)

(** {1 Section VI-A — driver coalescing} *)

type coalescing_result = {
  drivers : int;
  nics_served : int;
  driver_core_utilization : float;
      (** Of the busiest driver core at 5 Gbps TSO load. *)
  sustainable : bool;
}

val driver_coalescing : ?costs:Newt_hw.Costs.t -> unit -> coalescing_result list
(** Per-driver-count utilization: even one driver for all five NICs is
    nowhere near saturation ("the work done by the drivers is extremely
    small"). *)

(** {1 Scaling — N transport shards behind a multi-queue NIC} *)

type scaling_point = {
  shards : int;
  ip_replicas : int;  (** IP instances this point ran with. *)
  pf_shards : int;  (** PF shards in the path (0 = no filter). *)
  goodput_gbps : float;  (** Aggregate iperf goodput over all flows. *)
  per_shard : Newt_scale.Sharded_stack.shard_stats array;
  per_pf_shard : Newt_scale.Sharded_stack.pf_shard_stats array;
      (** Per-PF-shard verdict/conntrack counters (empty without a
          filter). *)
  imbalance : float;  (** Max/mean of per-RX-queue frame counts. *)
  violations : int;  (** Flow→shard affinity violations (must be 0). *)
}

type scaling_result = {
  points : scaling_point list;
  single_instance_gbps : float;
      (** The Table II ceiling of one TCP server (Split_dedicated_sc) —
          the line the sharded stack must climb past. *)
}

val scaling_curve :
  ?shard_counts:int list ->
  ?ip_replicas:int ->
  ?pf_shards:int ->
  ?flows:int ->
  ?duration:float ->
  ?link_gbps:float ->
  ?verify:Newt_verify.Continuous.t ->
  unit ->
  scaling_result
(** Run [flows] parallel iperf streams (default 8) against a
    {!Newt_scale.Sharded_stack} at each shard count (default 1, 2, 4, 8)
    over a fat link (default 40 Gbps): aggregate goodput scales with the
    shard count until another stage (IP, the wire) saturates, while one
    instance is pinned at the single-server ceiling. [ip_replicas]
    (default 1) replicates the IP server as well — each point is capped
    at [min ip_replicas shards] — lifting the plateau the single IP
    instance imposes once the shards outrun it. [pf_shards] (default 0
    = no filter, the historical curve) puts a pass-all packet filter on
    the path, sharded [min pf_shards shards] ways with a partitioned
    conntrack table. With [verify] each point re-checks the sharded
    topology (including RSS affinity) after every shard reincarnation
    and closes with [Continuous.end_run]. *)

(** {1 Stack verifier} *)

val sharded_spec : Newt_scale.Sharded_stack.t -> Newt_verify.Static.sharding
(** The sharding-affinity description of a wired sharded host, for
    {!Newt_verify.Static.check}. *)

val verify_configs : ?max_shards:int -> unit -> Newt_verify.Report.t list
(** Wire every shipped stack configuration — the split single-instance
    stack plus every sharded variant (N = 1..[max_shards] shards × 1
    and 2 IP replicas × 1 and 2 PF shards, filter enabled) — and run
    the static channel-graph checker (including the PF partition
    checks) over each. *)

val verify_all : ?max_shards:int -> unit -> Newt_verify.Report.t
(** {!verify_configs} merged into one report; [Report.ok] of the result
    is the CI gate. *)

val sanitized_ip_crash :
  ?seed:int ->
  ?crash_at:float ->
  ?duration:float ->
  unit ->
  Newt_verify.Report.t * crash_trace
(** {!figure_ip_crash} with the pool-ownership sanitizer installed for
    the whole run, crash and recovery included. Returns the sanitizer's
    report (expected: zero violations, some stale-pointer observations)
    alongside the usual trace. *)

val protocol_ip_crash :
  ?seed:int ->
  ?crash_at:float ->
  ?duration:float ->
  unit ->
  Newt_verify.Report.t * crash_trace
(** {!figure_ip_crash} with the dynamic channel-protocol checker
    ({!Newt_verify.Protocol}) replaying the whole run, crash and
    recovery included, and the tail treated as drained (iperf stops a
    second before the end). Expected: zero violations — every request
    confirmed or aborted, stale confirms absorbed, no dropped confirm
    while its requester was still pending. *)

val protocol_pf_crash :
  ?seed:int ->
  ?rules:int ->
  ?crash_at:float list ->
  ?duration:float ->
  unit ->
  Newt_verify.Report.t * crash_trace
(** {!figure_pf_crash} under the protocol checker, as in
    {!protocol_ip_crash}: the double filter crash must leave no open
    obligations. *)

(** {1 Recovery model checking — exhaustive crash-point search} *)

val split_crash_points : unit -> (string * string list) list
(** The split stack's (component × labeled recovery steps) space:
    every killable component of a {!Host} with its
    {!Newt_stack.Component.recovery_steps}. *)

val mcheck_split :
  ?budget:float ->
  ?seed:int ->
  ?break_recovery:Host.component * Host.sabotage ->
  unit ->
  Newt_verify.Mcheck.outcome
(** Model-check the split stack's recovery: for every crash point of
    {!split_crash_points}, boot a fresh host under an iperf load, kill
    the component at 0.6 s with the one-shot injector armed so it dies
    again right after the named recovery step, and judge convergence —
    reincarnation reports every component responsive, the continuous
    verifier (static re-checks, sanitizer, leak accounting on the
    drained tail) is clean, and the protocol checker holds no open
    obligations. [break_recovery] sabotages a component's recovery
    ({!Host.sabotage}) in every case; the affected crash points must
    then surface as counterexamples carrying the protocol event trace.
    [budget] caps the search in CPU seconds (remaining cases are
    reported as skipped). *)

val mcheck_sharded :
  ?budget:float ->
  ?shards:int ->
  ?ip_replicas:int ->
  ?pf_shards:int ->
  ?break_recovery:Host.component * Host.sabotage ->
  unit ->
  Newt_verify.Mcheck.outcome
(** The same search over a sharded stack (default N=2 shards × r=2 IP
    replicas × pf=2 PF shards, capped at [min pf_shards shards]): every
    TCP shard, IP replica and PF shard crashed at every labeled
    recovery step — for a PF shard that includes its rules replay and
    conntrack re-track steps — under a multi-flow load, with the
    sharded topology (including RSS affinity and the PF partition)
    re-checked after each restart. [break_recovery] transplants the
    {!Host.sabotage} defect onto member 0 of the named component's
    replica set (tcp, ip or pf) — the sabotaged crash points must
    surface as counterexamples. The short multi-flow tail is not
    guaranteed to drain, so leak/obligation accounting is off;
    convergence, re-checks and hard protocol violations still gate. *)
