(** The original MINIX 3 baseline, packet by packet (Table II, line 1).

    One {e timeshared} core runs the application, the monolithic INET
    server and the network driver. Every hop is a synchronous kernel
    IPC: two mode switches with cold caches plus the kernel's message
    copy — and, because the processes share the core, every hop also
    forces a context switch and a cache refill (these are charged
    automatically by the {!Newt_hw.Cpu} model when the serving process
    changes). Payloads are copied at user/kernel and INET/driver
    boundaries, checksums run in software, and the driver accepts one
    packet at a time with a separate completion round trip, as the
    historical MINIX driver protocol did.

    The TCP engine is the same real protocol implementation the NewtOS
    servers use (the paper replaced the old INET stack with lwIP for
    its measurements too); a legacy-overhead factor accounts for the
    remaining difference. Frames on the wire are real and checked by
    the same {!Sink} peer.

    Throughput is {e emergent}: run an iperf against a sink and see the
    ~hundred-megabit ceiling of Table II's first row come out of the
    cost model. *)

type t

val create :
  Newt_hw.Machine.t ->
  link:Newt_nic.Link.t ->
  addr:Newt_net.Addr.Ipv4.t ->
  peer_mac:Newt_net.Addr.Mac.t ->
  unit ->
  t
(** Builds the shared core and the three processes; attaches to the
    host side of [link]. The application writes 8 KiB at a time. *)

val start_iperf :
  t -> dst:Newt_net.Addr.Ipv4.t -> port:int -> until:Newt_sim.Time.cycles -> unit
(** The application connects and streams until the given time. *)

val bytes_sent : t -> int

val core_utilization : t -> float
(** Of the single shared core — saturated long before the wire is. *)

val sync_ipc_count : t -> int
(** Synchronous kernel IPC round trips performed — "a multiserver
    system under heavy load easily generates hundreds of thousands of
    messages per second" (Section III-A). *)
