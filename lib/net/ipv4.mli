(** IPv4: header codec and routing.

    The routing table is the IP server's only real state — "very limited
    (static) state, basically the routing information" (Table I) — which
    is why IP is the second-easiest component to restart: the
    configuration is saved to the storage server and restored on
    recovery. *)

type protocol = Icmp | Tcp | Udp | Unknown of int

val protocol_code : protocol -> int

type header = {
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
  protocol : protocol;
  ttl : int;
  ident : int;
  total_len : int;  (** Header plus payload, bytes. *)
}

val header_size : int
(** 20 bytes; we never emit options. *)

val encode_header : header -> Bytes.t -> off:int -> unit
(** Write a 20-byte header with a correct header checksum. *)

val decode_header : Bytes.t -> off:int -> header option
(** [None] when truncated, not version 4, or the checksum is wrong. *)

val packet : header -> payload:Bytes.t -> Bytes.t
(** Assemble a full packet; [total_len] is taken from the payload. *)

val payload_at : Bytes.t -> off:int -> (header * int * int) option
(** The validated header of the packet at [off], which runs at most to
    the end of the buffer, with the offset and length of its payload.
    Nothing is copied. *)

val payload : Bytes.t -> (header * Bytes.t) option
(** {!payload_at} [~off:0], returning a copy of the payload. *)

(** The routing table: longest-prefix match over static routes. *)
module Route : sig
  type table

  type entry = {
    prefix : Addr.Ipv4.t;
    bits : int;
    iface : int;  (** Outgoing interface index. *)
    gateway : Addr.Ipv4.t option;
        (** Next hop; [None] means directly attached. *)
  }

  val create : unit -> table
  val add : table -> entry -> unit
  val remove : table -> prefix:Addr.Ipv4.t -> bits:int -> unit

  val lookup : table -> Addr.Ipv4.t -> entry option
  (** Longest-prefix match. *)

  val entries : table -> entry list
  (** All routes, most specific first — the serializable state a
      restarting IP server saves and restores. *)

  val clear : table -> unit
end
