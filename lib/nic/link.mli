(** A full-duplex point-to-point Ethernet link.

    Each direction serializes frames at the link bandwidth (1 Gbps for
    the paper's Intel PRO/1000 ports) and delivers them after a small
    propagation delay. Frames offered while the transmit queue is full,
    or while the link is down (e.g. during the reset a crashed IP server
    forces on the device, Section V-D), are dropped — counted, exactly
    like a real wire.

    A frame waits in one of the direction's reusable buffers, not in a
    heap block of its own: {!transmit} copies it in, or a sender writes
    it in place ({!slot}, {!commit}). A landed frame is lent to the
    receiver for its callback, not given: the bytes are valid until the
    callback returns, and a receiver that keeps a frame copies it. Every
    tap gets a copy of its own, which it may keep. *)

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
(** Install the receive callback of the endpoint on [side]. The frame
    it gets is the link's own buffer, lent for the call: the callback
    may read it, and may transmit on either direction meanwhile (its
    frame stays intact), but must copy what it keeps. *)

val tap : t -> (at:Newt_sim.Time.cycles -> dir:side -> Bytes.t -> unit) -> unit
(** Install a passive monitor that sees every delivered frame with its
    delivery time and direction ([dir] = the transmitting side) — the
    tcpdump the paper used to capture the Figure 4 trace. Multiple taps
    stack. *)

val transmit : t -> from:side -> Bytes.t -> bool
(** Offer a frame for transmission; [false] (dropped) when down or the
    direction's queue is full. The link copies the frame, so the caller
    may reuse it at once. *)

val accepts : t -> from:side -> bool
(** Whether {!transmit} from [side] would take a frame now: the link is
    up and the direction's queue has room. Counts nothing. *)

val slot : t -> from:side -> len:int -> Bytes.t
(** The buffer, exactly [len] bytes, that the next frame from [side]
    occupies in the direction's ring: a sender that can build the frame
    in place (a NIC's gather DMA) writes it there and then calls
    {!commit}, and the frame is never copied. Call it only while
    {!accepts} holds; otherwise it raises [Invalid_argument]. A slot
    left uncommitted is simply rewritten by the next frame. *)

val commit : t -> from:side -> unit
(** Send the frame written into the buffer the last {!slot} from [side]
    returned, exactly as {!transmit} would send a copy of it. Nothing
    may transmit from [side] between the {!slot} and its [commit]. *)

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
