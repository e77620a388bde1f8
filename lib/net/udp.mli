(** UDP: datagram codec with the IPv4 pseudo-header checksum. *)

type header = { src_port : int; dst_port : int }

val header_size : int
(** 8 bytes. *)

val encode :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> header -> payload:Bytes.t -> Bytes.t
(** A full UDP datagram (header + payload) with the pseudo-header
    checksum filled in. *)

val encode_partial_csum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> header -> payload:Bytes.t -> Bytes.t
(** Like {!encode} but the checksum field holds only the pseudo-header
    partial sum — the offload path: the NIC (or the IP server acting for
    hardware without offload) finalizes it. *)

val finalize_csum : Bytes.t -> unit
(** Complete a partial checksum left by {!encode_partial_csum}, folding
    the datagram bytes into the stored pseudo-header sum. *)

val decode :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Bytes.t -> (header * Bytes.t) option
(** Validate the checksum and split header from payload. A transmitted
    checksum of 0 means the sender computed none (RFC 768), so the
    datagram is accepted unverified. *)

val pseudo_header_sum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> proto:int -> len:int -> Checksum.partial
(** The IPv4 pseudo-header partial sum shared with TCP. *)
