(** Address Resolution Protocol: wire format and a resolver cache.

    ARP is stateless from the recovery point of view (Section V, Table I:
    "ARP and ICMP are stateless") — a restarted IP server simply starts
    with a cold cache and re-resolves on demand. *)

type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Addr.Mac.t;
  sender_ip : Addr.Ipv4.t;
  target_mac : Addr.Mac.t;
  target_ip : Addr.Ipv4.t;
}

val encode : packet -> Bytes.t
(** The 28-byte IPv4-over-Ethernet ARP packet. *)

val decode : Bytes.t -> packet option

module Cache : sig
  (** A resolver with a pending queue: packets for an unresolved next
      hop wait (bounded) until the reply arrives. *)

  type t

  val create : ?max_pending:int -> my_mac:Addr.Mac.t -> my_ip:Addr.Ipv4.t -> unit -> t

  val lookup : t -> Addr.Ipv4.t -> Addr.Mac.t option

  val insert : t -> Addr.Ipv4.t -> Addr.Mac.t -> unit

  val resolve :
    t ->
    Addr.Ipv4.t ->
    on_ready:(Addr.Mac.t -> unit) ->
    [ `Hit of Addr.Mac.t | `Wait | `Dropped ]
  (** [`Hit mac]: already cached. [`Wait]: a request should go out (the
      caller sends it if this is the first waiter); [on_ready] fires when
      the reply arrives. [`Dropped]: too many waiters, caller drops. *)

  val input : t -> packet -> packet option
  (** Process a received ARP packet: learn the sender mapping, fire any
      waiting [on_ready] callbacks, and, for a request addressed to us,
      return the reply to transmit. *)

  val request_for : t -> Addr.Ipv4.t -> packet
  (** Build an ARP request for the given address. *)

  val flush : t -> unit
  (** Forget everything (restart). *)

  val size : t -> int
end
