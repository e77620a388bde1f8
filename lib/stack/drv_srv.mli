(** The network driver server.

    One per NIC (or one for several NICs — the driver-coalescing
    configuration of Section VI-A). The driver's work is deliberately
    tiny: "filling descriptors and updating tail pointers of the rings
    on the device, polling the device". It is stateless from the
    recovery point of view (Table I: "No state, simple restart"): its
    whole lifecycle is the generic {!Component} one, plus a device
    reset on restart.

    It drives queue 0 of a one-queue {!Newt_nic.Mq_e1000} (the paper's
    PRO/1000 port) and confirms each TX completion in a message of its
    own; {!Mq_drv_srv} serves every queue of a multi-queue device and
    batches its confirms.

    Interrupts reach the driver as kernel messages (Section V-B); here
    the device's irq handler schedules costed work on the driver's
    core.

    The receive pool belongs to the IP server; the driver gets an
    allocation capability ({!grant_rx_pool}) when IP exports the pool,
    and returns buffers to the device's RX ring. When IP crashes, the
    pool dies with it: the driver must reset the device before going on
    (Section V-D — "a crash of IP means de facto restart of the network
    drivers too"). *)

type t

val create : Component.t -> nic:Newt_nic.Mq_e1000.t -> unit -> t

val connect_ip :
  t ->
  rx_from_ip:Msg.t Newt_channels.Sim_chan.t ->
  tx_to_ip:Msg.t Newt_channels.Sim_chan.t ->
  unit
(** Wire the channel pair to the IP server and start consuming. *)

val grant_rx_pool :
  t ->
  alloc:(unit -> Newt_channels.Rich_ptr.t option) ->
  write:(Newt_channels.Rich_ptr.t -> Bytes.t -> unit) ->
  unit
(** IP exported its receive pool: [alloc] yields empty buffers (None
    when exhausted), [write] is the DMA-write capability. The driver
    fills the RX ring. *)

val hooks : t -> Ip_srv.driver_hooks
(** What the IP server calls on this driver: {!connect_ip},
    {!grant_rx_pool} and the neighbour-crash procedure. An IP crash
    marks the device unsafe (its shadow descriptors reference a dead
    pool); IP's restart resets the device (link bounce), and RX re-arms
    once the pool has been re-granted. *)
