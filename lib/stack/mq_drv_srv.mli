(** The multi-queue network driver server.

    One process serving every queue of a {!Newt_nic.Mq_e1000} device —
    the paper keeps a single driver even when the protocol servers are
    replicated, because "filling descriptors and updating tail pointers"
    is cheap enough that one core drives the wire.

    Differences from {!Drv_srv}:

    - it honours the [queue] field of {!Msg.Drv_tx}, posting each frame
      on the TX ring the sending shard's flows hash to, and replenishes
      every RX ring;
    - it coalesces TX completions into {!Msg.Drv_tx_confirm}
      messages of up to {!Newt_hw.Costs.t.confirm_batch} ids, amortizing
      the per-message channel cost IP pays — without this, IP's
      completion handling alone would eat the headroom the shards are
      supposed to fill;
    - it can fan RX completions out to N replicated IP servers: queue
      [q] belongs to replica [q mod n], each replica grants its own RX
      pool for its queues, and a replica crash fences off only that
      replica's queues ({!Newt_nic.Mq_e1000.mark_queue_unsafe}) so the
      other shards never notice. *)

type t

val create : Component.t -> nic:Newt_nic.Mq_e1000.t -> unit -> t

(** {1 Replicated-IP attachment}

    Queue [q] of the device is owned by IP replica [q mod n] where [n]
    is the highest replica index attached plus one; connect replicas
    densely from index 0. Call {!set_replicas} {e before} the first
    pool grant: the queue→owner map depends on [n], and a grant made
    while the map is smaller fills foreign queues' rings from the wrong
    pool. *)

val set_replicas : t -> int -> unit
(** Declare how many IP replicas will attach. *)

val hooks : t -> replica:int -> Ip_srv.driver_hooks
(** What IP replica [replica] calls on this driver. When one replica
    owns the device, its crash marks the whole device unsafe and its
    restart performs the full link-bouncing reset, as the real adapter
    would. With several, a crash fences DMA off for the dead replica's
    queues only, so it loses only its shard's datagrams, and the
    restart reprograms those queues without a link bounce; the replica
    re-grants its pool right after, which re-arms RX. *)
