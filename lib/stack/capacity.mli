(** The analytic pipeline-capacity model behind Table II.

    Peak outgoing TCP throughput of a stack configuration equals the
    capacity of its bottleneck stage: every stage (each server core, the
    application core, the wires) has a cycles-per-segment cost derived
    from {!Newt_hw.Costs}, and the slowest one saturates first. The
    full event-driven simulator reproduces the same pipeline
    packet-by-packet at 1 Gbps scale (see the cross-validation test);
    this model extends the accounting to the multi-NIC peak rates the
    paper measures, where event-level simulation would be needlessly
    slow.

    The seven configurations are the seven rows of Table II. *)

type config =
  | Minix_sync
      (** Original MINIX 3: one timeshared core, synchronous kernel IPC,
          copies everywhere, no offloads. *)
  | Split_dedicated
      (** NewtOS split stack on dedicated cores, but applications issue
          kernel IPC directly to the TCP server (no SYSCALL server). *)
  | Split_dedicated_sc  (** Split stack plus the SYSCALL server. *)
  | Single_server_sc
      (** The whole lwIP stack in one server (TCP+IP merged), SYSCALL
          server, asynchronous channels to the drivers. *)
  | Single_server_sc_tso  (** Same plus TCP segmentation offload. *)
  | Split_dedicated_sc_tso  (** The full NewtOS design with TSO. *)
  | Linux_10gbe
      (** Monolithic comparison point: in-kernel stack, all offloads,
          one 10 GbE port. *)

val all : config list
(** In Table II row order. *)

val name : config -> string

type stage = {
  label : string;
  cycles_per_segment : float;
  capacity_gbps : float;
  pool_ops_per_segment : float;
      (** [Pool.alloc] and [Pool.free] calls the stage's server makes
          per segment, each priced at [Costs.pool_op] inside
          [cycles_per_segment] — the same calls the server charges
          when it runs. *)
}

type result = {
  config : config;
  goodput_gbps : float;  (** TCP payload throughput at the bottleneck. *)
  bottleneck : string;  (** Which stage saturates ("wire" when link-bound). *)
  stages : stage list;
}

val evaluate :
  ?costs:Newt_hw.Costs.t ->
  ?nics:int ->
  ?mss:int ->
  config ->
  result
(** Defaults: 5 gigabit NICs (one 10 GbE for [Linux_10gbe]), 8 KiB
    application writes, MSS 1460. *)

val wire_goodput_gbps : nics:int -> gbps_per_nic:float -> mss:int -> float
(** Achievable TCP payload rate of the links themselves, accounting for
    TCP/IP/Ethernet framing overhead. *)
