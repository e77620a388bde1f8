(** The UDP server.

    Small per-socket state — "a 4-tuple of source and destination
    address and ports ... this state does not change very often"
    (Table I) — saved to the storage server on every change, which makes
    UDP the transport that recovers {e transparently}: after a crash
    the restarted server re-creates all sockets from storage, and the
    SYSCALL server re-issues the last unfinished operation on each
    socket (Section V-D). The paper's DNS-resolver test keeps working
    across UDP crashes without reopening its socket.

    The socket-table reload is a {!Component} restart hook; channel
    teardown, buffer-pool reclamation and the in-flight request DB are
    the generic component lifecycle. *)

type t

val create :
  Component.t ->
  registry:Newt_channels.Registry.t ->
  local_addr:Newt_net.Addr.Ipv4.t ->
  save:(string -> string -> unit) ->
  load:(string -> string option) ->
  unit ->
  t

val comp : t -> Component.t

val set_src_select : t -> (Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Ipv4.t) -> unit
(** Source-address selection on a multihomed host. *)

val connect_ip :
  t ->
  to_ip:Msg.t Newt_channels.Sim_chan.t ->
  from_ip:Msg.t Newt_channels.Sim_chan.t ->
  unit

val connect_sc :
  t ->
  from_sc:Msg.t Newt_channels.Sim_chan.t ->
  to_sc:Msg.t Newt_channels.Sim_chan.t ->
  unit

val conntrack_flows : t -> Newt_pf.Conntrack.flow list

val on_ip_crash : t -> unit
val on_ip_restart : t -> unit

val repersist : t -> unit
(** Save the socket table again (after a storage-server crash). *)

val datagrams_out : t -> int
