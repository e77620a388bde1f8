(** The Internet checksum (RFC 1071): 16-bit ones'-complement of the
    ones'-complement sum. Used by IPv4 headers, ICMP, UDP and TCP; the
    partial-sum interface supports the pseudo-header computation and the
    checksum offloading path where the transport layer leaves a partial
    checksum for the NIC (or IP server) to finalize. *)

type partial
(** An accumulating ones'-complement sum. It is only meaningful through
    {!fold} and {!finish}; regions are summed in unfolded form, which
    cannot overflow below 2{^ 29} 64-bit words (about 4 GB) per
    region. *)

val zero : partial

val add_bytes : partial -> Bytes.t -> off:int -> len:int -> partial
(** Fold [len] bytes at [off] into the sum. An odd [len] is padded with
    a virtual zero byte, as the RFC specifies for the final octet. Odd
    lengths are therefore only correct for the {e last} region added.
    The bulk of the region is summed a 64-bit word at a time (RFC 1071
    §2(B)-(C)), behind one range check.
    @raise Invalid_argument if [off] and [len] do not name a region of
    [b]. *)

val add_int16 : partial -> int -> partial
(** Fold one 16-bit big-endian word into the sum. *)

val finish : partial -> int
(** The checksum: complemented, folded 16-bit result. *)

val fold : partial -> int
(** The folded 16-bit sum {e without} complementing — what a transport
    layer stores in the checksum field when it leaves finalization to a
    checksum-offloading NIC. *)

val bytes : Bytes.t -> off:int -> len:int -> int
(** One-shot checksum over a byte region. *)

val valid : Bytes.t -> off:int -> len:int -> bool
(** A region containing its own checksum field sums to zero. *)
