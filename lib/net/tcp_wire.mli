(** TCP segment wire format: header, MSS and window-scale options,
    pseudo-header checksum, and the partial-checksum variant used with
    checksum offloading. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

val flag_syn : flags
val flag_ack : flags
val flag_syn_ack : flags
val flag_fin_ack : flags
val flag_rst : flags

type header = {
  src_port : int;
  dst_port : int;
  seq : int;  (** Unsigned 32-bit sequence number. *)
  ack : int;  (** Unsigned 32-bit acknowledgment number. *)
  flags : flags;
  window : int;  (** Unscaled 16-bit window field. *)
  mss : int option;  (** MSS option (SYN segments). *)
  wscale : int option;  (** Window-scale option (SYN segments). *)
}

val encode :
  src:Addr.Ipv4.t ->
  dst:Addr.Ipv4.t ->
  ?partial_csum:bool ->
  header ->
  payload:Bytes.t ->
  Bytes.t
(** A complete TCP segment. With [~partial_csum:true] the checksum field
    holds the folded pseudo-header sum for an offloading NIC to
    finalize. *)

val finalize_csum : Bytes.t -> unit
(** Finish a partial checksum in place (the offload engine). *)

val decode_at :
  src:Addr.Ipv4.t ->
  dst:Addr.Ipv4.t ->
  Bytes.t ->
  off:int ->
  len:int ->
  (header * int) option
(** Validate the checksum of the [len]-byte segment at [off] of the
    buffer and return its header and the offset of its payload, which
    runs to [off + len]. Nothing is copied.
    @raise Invalid_argument if [off] and [len] do not name a region of
    the buffer. *)

val decode :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Bytes.t -> (header * Bytes.t) option
(** {!decode_at} over the whole buffer, returning a copy of the
    payload. *)
