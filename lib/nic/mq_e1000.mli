(** The one Ethernet device model: an Intel PRO/1000-style adapter with
    N TX/RX descriptor-ring pairs and an {!Rss} engine. It does
    scatter-gather DMA through the pool {!Newt_channels.Registry},
    checksum offload and TSO on transmit, serializes every queue onto
    one {!Link} (the shared PHY), and raises moderated interrupts, one
    reason per queue.

    With one queue ([Rss.create ~queues:1 ()]) it is the paper's
    PRO/1000 port, as the split stack and the single server drive it.
    The adapter keeps shadow copies of the ring descriptors, so after
    the rings' owner crashes the device {b must be reset} before new
    rings can be armed ({!mark_unsafe} / {!reset}, Section V-D); the
    reset takes the link down until auto-negotiation completes, the
    visible gap in Figure 4. A one-queue device puts every frame on
    queue 0 without parsing it.

    With several queues, TCP/UDP frames are hashed through the RSS
    indirection table onto an RX queue (other traffic lands on queue
    0), and one queue can be fenced and reprogrammed while the others
    keep forwarding ({!mark_queue_unsafe} / {!reset_queue}). The device
    journals flow→queue and counts {e steering violations}, a flow seen
    on two queues: the NIC half of the scale layer's affinity
    invariant. *)

type t

type tx_desc = {
  chain : Newt_channels.Rich_ptr.chain;
  csum_offload : bool;
  tso : bool;
  tso_mss : int;
  tx_cookie : int;
}

type rx_desc = { buf : Newt_channels.Rich_ptr.t; rx_cookie : int }
type rx_completion = { rx_buf : Newt_channels.Rich_ptr.t; len : int; cookie : int }

type irq_reason =
  | Rx_done of int  (** Queue index. *)
  | Tx_done of int  (** Queue index. *)
  | Link_change

val create :
  Newt_sim.Engine.t ->
  registry:Newt_channels.Registry.t ->
  link:Link.t ->
  side:Link.side ->
  mac:Newt_net.Addr.Mac.t ->
  rss:Rss.t ->
  ?reset_time:Newt_sim.Time.cycles ->
  unit ->
  t
(** The queue count is [Rss.queues rss]. Rings hold 256 descriptors,
    interrupts are moderated to one per 10 us, and [reset_time]
    defaults to 1.2 s. *)

val mac : t -> Newt_net.Addr.Mac.t
val queues : t -> int
val rss : t -> Rss.t

val set_irq_handler : t -> (irq_reason -> unit) -> unit
val set_rx_writer : t -> (Newt_channels.Rich_ptr.t -> Bytes.t -> unit) -> unit
(** The DMA-write capability for RX buffers, from the receive pool's
    owner. *)

val post_tx : t -> queue:int -> tx_desc -> bool
(** [false] when the ring is full. *)

val doorbell_tx : t -> queue:int -> unit
val post_rx : t -> queue:int -> rx_desc -> bool
val reap_tx : t -> queue:int -> tx_desc option
(** One TX completion: the frame's buffers may now be freed. *)

val reap_rx : t -> queue:int -> rx_completion option
val rx_ring_free : t -> queue:int -> int

val mark_unsafe : t -> unit
(** The rings' owner crashed: every queue stops until {!reset}. *)

val misconfigure : t -> unit
(** A buggy driver programmed the device wrongly: it silently stops
    receiving (Section VI-B's "slowdown but no crash"). Cleared by
    {!reset}. *)

val reset : t -> unit
(** Drops every ring, lifts all fences and the misconfiguration, and
    bounces the link: [Link_change] when it is back. *)

val mark_queue_unsafe : t -> queue:int -> unit
(** Fence DMA off for one queue only (the owner of that slice of the
    device crashed); the other queues keep forwarding. *)

val reset_queue : t -> queue:int -> unit
(** Reprogram one queue's rings and lift its fence. Unlike [reset]
    this keeps the link up: per-queue recovery needs no renegotiation,
    which is what makes replica restart invisible to other shards. *)

val link_up : t -> bool
val tx_packets : t -> int
val rx_packets : t -> int
val rx_no_buffer : t -> int
(** Frames dropped for want of a posted RX descriptor or on a fenced
    queue. *)

val rx_queue_packets : t -> int array
(** Per-queue received-frame counters (the imbalance picture). *)

val steering_violations : t -> int
(** Flows seen on more than one RX queue since the last reset — 0 on a
    correctly programmed device. *)
