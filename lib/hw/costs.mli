(** The cycle-cost model.

    All performance-relevant behaviour of the simulated machine is driven
    by this parameter record. The anchor values come from the paper's own
    micro-measurements on the 1.9 GHz Opteron 6168 testbed:

    - a void Linux SYSCALL costs ~150 cycles with hot caches and ~3000
      with cold caches (Section IV);
    - an asynchronous enqueue on a user-space channel between two cores
      costs ~30 cycles including the stall to fetch the updated pointer
      (Section IV);
    - kernel IPC across cores needs an interprocessor interrupt when the
      destination core idles (Section V-B).

    The remaining values (context switch, cache refill after a switch,
    per-byte copy throughput, MWAIT wake-up, per-layer protocol work) are
    conventional order-of-magnitude figures for that hardware generation,
    calibrated so that the capacity model reproduces the shape of the
    paper's Table II. Each is independently overridable for ablation. *)

type t = {
  trap_hot : Time.cycles;
      (** User/kernel mode switch with warm caches (SYSCALL, ~150). *)
  trap_cold : Time.cycles;
      (** Mode switch with cold caches/TLB/branch predictors (~3000). *)
  kipc_kernel_work : Time.cycles;
      (** Kernel-side work per kernel IPC message: validate, copy the
          fixed-size message, update process state. *)
  context_switch : Time.cycles;
      (** Direct cost of switching address spaces on a shared core. *)
  cache_refill : Time.cycles;
      (** Indirect cost a process pays after regaining a shared core:
          refilling caches/TLB evicted by its neighbours. *)
  ipi_cost : Time.cycles;
      (** Sender-side cost of an interprocessor interrupt. *)
  ipi_latency : Time.cycles;
      (** Delivery latency of an IPI to the destination core. *)
  channel_enqueue : Time.cycles;
      (** Raw asynchronous enqueue on a shared-memory SPSC queue (~30). *)
  channel_dequeue : Time.cycles;
      (** Raw dequeue from an SPSC queue on the consumer core. *)
  channel_marshal : Time.cycles;
      (** Producer-side software work per cross-domain request: building
          the request record, marshalling the rich-pointer chain and
          registering it (with its abort action) in the request database
          (Section IV). *)
  channel_demux : Time.cycles;
      (** Consumer-side software work per cross-domain message: operation
          code validation, rich-pointer translation, and reply matching
          against the request database. *)
  cacheline_transfer : Time.cycles;
      (** Stall for fetching a cache line dirtied by another core; paid by
          the consumer on each cross-core message. *)
  mwait_wakeup : Time.cycles;
      (** Kernel-mediated MWAIT wake-up: resume from halt plus restoring
          the user context (Section IV-B). *)
  poll_window : Time.cycles;
      (** How long an idle server polls its queues before halting the
          core; arrival gaps shorter than this incur no wake-up latency. *)
  copy_bytes_per_cycle : int;
      (** Memcpy throughput for message/payload copies. *)
  checksum_bytes_per_cycle : int;
      (** Software Internet-checksum throughput (when not offloaded). *)
  tcp_segment_work : Time.cycles;
      (** TCP work per outgoing segment: PCB lookup, sequence bookkeeping,
          header construction, retransmission-queue insert, timers. The
          lwIP-derived code of the paper is heavier than Linux's; the
          paper notes it "requires a complete overhaul". *)
  tcp_ack_work : Time.cycles;
      (** TCP work per incoming ACK: PCB lookup, cumulative-ACK
          processing, retransmission-queue trim, congestion update. *)
  udp_segment_work : Time.cycles;
      (** UDP work per datagram. *)
  ip_tx_work : Time.cycles;
      (** IP-layer work per outgoing packet: routing, header build. *)
  ip_rx_work : Time.cycles;
      (** IP-layer work per incoming packet: validation, demux. *)
  header_adjust : Time.cycles;
      (** IP's private copy of the transport header when it inserts the
          partial checksum (pools are immutable; Section V-C). *)
  pf_base : Time.cycles;
      (** Packet-filter fixed work per packet (state-table lookup). *)
  pf_rule_cost : Time.cycles;
      (** Packet-filter cost per ruleset entry traversed on a state
          miss. *)
  driver_packet_work : Time.cycles;
      (** Driver work per packet: fill a descriptor, advance the ring
          tail. The paper notes this is "extremely small". *)
  pool_op : Time.cycles;
      (** One [Pool.alloc] or one [Pool.free]: pop or push the free
          list, bump the slot's generation. Every server charges it for
          each pool operation it performs, in the cost of the handler
          or [Proc.exec] that performs it, and the capacity model counts
          the same operations per segment. *)
  confirm_batch : int;
      (** How many TX completions an in-process ring scan handles per
          event. Cross-domain confirms are per-request messages (the
          zero-copy protocol "almost doubl[es] the amount of
          communication", Section V-C); an in-process IP layer instead
          frees this many buffers per completion event. *)
  syscall_msg_size : int;
      (** Size of a fixed kernel IPC message (bytes). *)
  mono_wire_packet_work : Time.cycles;
      (** Monolithic (Linux-like) in-kernel per-wire-packet overhead when
          offloads are on: softirq/NAPI share, skb management, qdisc,
          completion, and locking. Calibrated to the paper's measured
          8.4 Gbps on 10 GbE. *)
  lock_contention : Time.cycles;
      (** Additional per-packet serialization penalty in the monolithic
          model when several cores enter the stack concurrently. *)
}

val default : t
(** The calibrated model for the paper's testbed. *)

val copy_cost : t -> int -> Time.cycles
(** [copy_cost c bytes] is the duration of copying [bytes]. *)

val checksum_cost : t -> int -> Time.cycles
(** [checksum_cost c bytes] is the duration of software-checksumming
    [bytes]. *)

val kipc_sendrec_cost : t -> cold:bool -> Time.cycles
(** Cost on the caller's core of a synchronous kernel IPC round trip:
    two mode switches plus kernel message work. *)
