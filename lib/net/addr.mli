(** Network addresses: IPv4 and Ethernet MAC. *)

module Ipv4 : sig
  type t
  (** An IPv4 address. *)

  val v : int -> int -> int -> int -> t
  (** [v 10 0 0 1] is 10.0.0.1. Octets must be in [0, 255]. *)

  val of_int32 : int32 -> t
  val to_int32 : t -> int32

  val of_string : string -> t option
  (** Parse dotted-quad notation. *)

  val to_string : t -> string
  val equal : t -> t -> bool
  val compare : t -> t -> int

  val in_prefix : prefix:t -> bits:int -> t -> bool
  (** [in_prefix ~prefix ~bits a] tests whether [a] falls inside the
      CIDR block [prefix/bits]. [bits] must be in [0, 32]. *)
end

module Mac : sig
  type t
  (** A 48-bit Ethernet address. *)

  val of_octets : int array -> t
  (** Six octets. *)

  val to_octets : t -> int array

  val write : t -> Bytes.t -> off:int -> unit
  (** Store the six octets at [off], in wire order. *)

  val read : Bytes.t -> off:int -> t
  (** The address stored at [off] (the inverse of {!write}). *)

  val broadcast : t
  val equal : t -> t -> bool
  val to_string : t -> string

  val of_index : int -> t
  (** A deterministic locally-administered MAC for simulated NIC [i];
      convenient for building test topologies. *)
end
