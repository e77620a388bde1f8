(** The SYSCALL server.

    "To detach the synchronous POSIX system calls from the asynchronous
    internals of NewtOS, the applications' requests are dispatched by a
    SYSCALL server. It is the only server which frequently uses the
    kernel IPC. Phrased differently, it pays the trapping toll for the
    rest of the system." (Section V-B)

    Applications block in a kernel sendrec; the SYSCALL server peeks at
    the message and forwards it over a fast-path channel to the TCP or
    UDP server, remembering the {e last unfinished operation on each
    socket}. That memory is the recovery mechanism of Section V-D: when
    a transport server is restarted, the SYSCALL server re-issues every
    unfinished operation against the new instance (preferring duplicate
    sends over lost ones).

    Its own crash is the generic {!Component} lifecycle plus one hook:
    outstanding calls are answered with errors and stale replies will
    be ignored. *)

type t

type app = { app_core : Newt_hw.Cpu.t; app_pid : int }
(** Identifies the calling application for cost accounting. *)

val create : Component.t -> unit -> t

val comp : t -> Component.t
val proc : t -> Proc.t

val connect_transport_sharded :
  t ->
  transport:[ `Tcp | `Udp ] ->
  pairs:(Msg.t Newt_channels.Sim_chan.t * Msg.t Newt_channels.Sim_chan.t) array ->
  unit
(** Wire [N] transport shards: [pairs.(i)] is shard [i]'s
    (to_transport, from_transport) channel pair. Each socket is pinned
    to one shard at creation time ({!set_placement}) and every call on
    it is routed there — the downward half of the flow→shard
    invariant. *)

val set_placement : t -> (transport:[ `Tcp | `Udp ] -> int) -> unit
(** Shard chosen for each new socket (default: always 0). The shard
    itself then picks a source port that hashes back to it, so any
    spreading policy preserves flow affinity. *)

(** {1 The POSIX face} *)

val socket :
  t -> app -> transport:[ `Tcp | `Udp ] -> (Msg.socket_id -> unit) -> unit
(** Create a socket; the continuation runs on the app's core when the
    transport acknowledged it. *)

val call :
  t -> app -> sock:Msg.socket_id -> Msg.sock_call -> (Msg.sock_result -> unit) -> unit
(** Issue a (blocking) socket call. [Call_accept]'s [new_sock] is
    filled in by the server. The continuation receives the result on
    the app's core. At most one outstanding call per socket. *)

(** {1 Recovery} *)

val on_transport_restart : t -> transport:[ `Tcp | `Udp ] -> shard:int -> unit
(** Re-issue the last unfinished operation of every socket on the
    restarted transport shard, in socket-id order (the other shards'
    sockets never lost anything). *)

val outstanding_calls : t -> int

val socket_count : t -> int
(** Sockets in the table. A socket leaves it once the reply to its
    close has been delivered. *)
