(** Flow-churn and tail-latency harness.

    The paper's evaluation is bulk-transfer heavy (Table II, Figures
    4/5); production front-ends instead live on {e churn} — tens of
    thousands of short RPC-style connections per second riding next to
    the bulk flows. This module drives that load through the sharded
    stack and reports the connect/request latency distribution from
    streaming histograms ({!Newt_sim.Stats.Hist}), p50/p99/p999 — the
    numbers a mean would hide.

    Three adversarial scenarios are first-class runs, each aimed at a
    bug this harness flushed out of the pre-fix stack:

    - {!Syn_flood}: spoofed SYNs exhaust the conntrack budget. The
      state-blind LRU used to evict established entries to make room
      for flood state; the fixed filter evicts half-open entries first
      ({!Newt_pf.Conntrack}).
    - {!Listen_pressure}: connection arrivals outrun a slow accept
      loop. The accept queue used to grow without bound; the fixed
      server refuses past the listener's backlog
      ({!Newt_stack.Tcp_srv}, [listen_overflows]).
    - {!Crash_during_churn}: a TCP shard dies holding tens of
      thousands of in-flight and TIME_WAIT connections; recovery is
      judged by the continuous checker mid-churn. *)

type scenario =
  | Baseline  (** Churn + bulk, no adversary. *)
  | Syn_flood
      (** Churn + bulk + spoofed-source SYN flood against the
          conntrack table (shrunk via [conntrack_total] so eviction
          happens within the run). *)
  | Crash_during_churn
      (** Churn + bulk + the same flood; TCP shard 0 is killed at the
          midpoint with its connection count recorded. *)
  | Listen_pressure
      (** Inbound connects against a small-backlog listener with a
          deliberately slow accept loop, on the single-listener
          {!Host} (inbound flows steer by hash on the sharded stack,
          so only this topology concentrates arrivals on one queue). *)

val scenario_name : scenario -> string
val scenario_of_name : string -> scenario option

val all_scenarios : scenario list

(** One latency distribution, in microseconds, summarized from a
    {!Newt_sim.Stats.Hist} (quantiles carry its ≤1/64 bucket error). *)
type tail = {
  samples : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

type result = {
  scenario : scenario;
  offered_rate : float;  (** RPC starts per second the workers aim for. *)
  duration_s : float;
  started : int;
  completed : int;
  rpc_errors : int;
  shed : int;
  completed_rate : float;  (** Completed RPCs per second. *)
  connect : tail;  (** Connect-call → established, µs. *)
  request : tail;  (** Connect-call → echo received, µs. *)
  bulk_goodput_gbps : float;
  listen_overflows : int;
  accepted : int;  (** Listen-pressure: connections the listener took. *)
  client_resets : int;  (** Listen-pressure: client-side refusals. *)
  flood_syns : int;
  conntrack_entries : int;
  conntrack_half_open : int;
  evicted_half_open : int;
  evicted_established : int;
  conns_at_kill : int;  (** Crash: PCBs on the shard the moment it died. *)
  shard_restarts : int;
  steering_violations : int;
  checksum_failures : int;
}

val run :
  ?scenario:scenario ->
  ?rate:float ->
  ?duration:float ->
  ?shards:int ->
  ?ip_replicas:int ->
  ?pf_shards:int ->
  ?bulk_flows:int ->
  ?workers:int ->
  ?payload:int ->
  ?flood_rate:float ->
  ?conntrack_total:int ->
  ?backlog:int ->
  ?seed:int ->
  ?verify:Newt_verify.Continuous.t ->
  ?break_tcp:Newt_net.Tcp.sabotage ->
  unit ->
  result
(** Run one scenario. Defaults: baseline, 10k conn/s offered over 1 s
    of simulated time on an 8×4×2 topology with 4 bulk iperfs, a 20k
    SYN/s flood (flood scenarios), an 8192-entry conntrack budget, and
    for {!Listen_pressure} a backlog of 16 against one accept every
    5 ms (its rate is clamped to 2k conn/s — one listener's worth).

    [break_tcp] arms a conformance sabotage on every TCP shard (see
    [Newt_net.Tcp.sabotage]); pair [Stale_established] with
    {!Crash_during_churn} and [Ack_from_closed] with {!Syn_flood} so
    the planted bug is actually exercised. When the FSM checker
    ([Newt_verify.Tcpfsm]) is armed, the sharded scenarios also
    cross-check each filter shard's conntrack confirmation bits
    against the checker's shadow states before the run's verdict is
    read.

    [workers] open-loop RPC workers share the offered rate; each paces
    starts independently of completions, so stack-side queueing
    surfaces as tail latency rather than a reduced offered rate.

    [verify] attaches the continuous checker: every reincarnation
    re-runs the static topology check mid-churn, and the run ends with
    {!Newt_verify.Continuous.end_run}. *)
