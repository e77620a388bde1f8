(** A NIC descriptor ring.

    The driver owns the tail (it writes descriptors and advances the
    tail to hand them to the hardware); the device owns the head (it
    consumes descriptors and marks them done). The same structure is
    used for TX (descriptor = frame to send) and RX (descriptor = empty
    buffer to fill).

    The paper's recovery problem lives here: "the Intel gigabit
    adapters do not have a knob to invalidate [their] shadow copies of
    the RX and TX descriptors", so a crash of the ring's owner forces a
    device reset (Section V-D). *)

type 'a t

val create : size:int -> dummy:'a -> 'a t
(** [size] descriptors, initially all free. [dummy] fills unused
    slots: {!reap} and {!clear} write it over every slot they free, so
    the ring never keeps a finished descriptor's payload reachable. *)

val free_slots : 'a t -> int
(** Descriptors the driver can still post. *)

val pending : 'a t -> int
(** Descriptors posted but not yet consumed by the device. *)

val completed_unreaped : 'a t -> int
(** Descriptors the device finished that the driver has not reaped. *)

val post : 'a t -> 'a -> bool
(** Driver side: write a descriptor at the tail. [false] if full. *)

val device_take : 'a t -> 'a option
(** Device side: consume the next posted descriptor (it stays in the
    ring until reaped; this returns its payload and marks the slot as
    owned by the device). *)

val device_complete : 'a t -> unit
(** Device side: mark the oldest taken descriptor done. *)

val reap : 'a t -> 'a option
(** Driver side: collect the oldest done descriptor, freeing its slot.
    The slot is overwritten with the ring's [dummy] (as a driver drops
    its buffer reference when it cleans a descriptor). *)

val clear : 'a t -> 'a list
(** Drop all descriptors (device reset); returns the payloads that were
    still in the ring, in order, so the owner can account for them.
    Every slot is reset to [dummy]. *)
