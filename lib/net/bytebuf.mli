(** A bounded circular byte FIFO.

    Backs the TCP send buffer (where it doubles as the retransmission
    store: bytes stay until cumulatively acknowledged, and retransmission
    re-reads from the front) and the receive buffer (whose free space is
    the advertised window).

    The capacity is the contract: {!available}, and with it every
    advertised window and send-space check, is always [capacity -
    length]. Resident storage is separate and grows on use: a buffer
    starts with none, and a {!push} that does not fit grows it, to the
    push's size at first and by doubling after that, never beyond the
    capacity. A connection that never carries more than a few hundred
    bytes never pays for a full-size buffer. *)

type t

val create : capacity:int -> t
(** A buffer that can hold up to [capacity] bytes ([capacity > 0]).
    Allocates no storage yet. *)

val capacity : t -> int
val length : t -> int
val available : t -> int
(** Free space, in bytes: [capacity - length]. *)

val resident : t -> int
(** Bytes of storage actually allocated: [0] until the first non-empty
    {!push}, at least {!length}, never more than {!capacity}. *)

val is_empty : t -> bool

val push : t -> Bytes.t -> off:int -> len:int -> int
(** Append up to [len] bytes; returns how many actually fit
    ([min len available]), growing the storage as needed. *)

val peek : t -> off:int -> len:int -> Bytes.t
(** Copy [len] bytes starting [off] bytes from the front, without
    consuming. Raises [Invalid_argument] when the range exceeds the
    stored length. *)

val drop : t -> int -> unit
(** Discard exactly [n] bytes from the front. Raises [Invalid_argument]
    if fewer are stored. *)

val pop : t -> max:int -> Bytes.t
(** Remove and return up to [max] bytes from the front. *)

val clear : t -> unit
(** Discard everything stored. The storage is kept. *)
