(** A full-duplex point-to-point Ethernet link.

    Each direction serializes frames at the link bandwidth (1 Gbps for
    the paper's Intel PRO/1000 ports) and delivers them after a small
    propagation delay. Frames offered while the transmit queue is full,
    or while the link is down (e.g. during the reset a crashed IP server
    forces on the device, Section V-D), are dropped — counted, exactly
    like a real wire.

    A frame waits in one of the direction's reusable buffers, not in a
    heap block of its own: {!transmit} copies it in, and delivery hands
    the receiver and every tap a fresh copy that each may keep. *)

type t

type side = Left | Right

val create :
  Newt_sim.Engine.t ->
  ?bandwidth_bps:int ->
  ?propagation:Newt_sim.Time.cycles ->
  ?queue_frames:int ->
  unit ->
  t
(** Defaults: 1 Gbps, 2 us propagation, 256-frame queue per direction
    (a typical NIC ring's worth of buffering). *)

val attach : t -> side -> (Bytes.t -> unit) -> unit
(** Install the receive callback of the endpoint on [side]. *)

val tap : t -> (at:Newt_sim.Time.cycles -> dir:side -> Bytes.t -> unit) -> unit
(** Install a passive monitor that sees every delivered frame with its
    delivery time and direction ([dir] = the transmitting side) — the
    tcpdump the paper used to capture the Figure 4 trace. Multiple taps
    stack. *)

val transmit : t -> from:side -> Bytes.t -> bool
(** Offer a frame for transmission; [false] (dropped) when down or the
    direction's queue is full. The link copies the frame, so the caller
    may reuse it at once. *)

val set_up : t -> bool -> unit
(** Bring the link administratively up or down. Going down flushes the
    in-flight queues; their buffers stay for reuse. *)

val is_up : t -> bool

val dropped : t -> int
(** Frames dropped (down or queue overflow), both directions. *)

val ring_slots : t -> from:side -> int
(** Frame buffers the direction from [side] holds: its occupancy
    high-water mark rounded up by doubling (at least 16), never more
    than the queue size. *)
