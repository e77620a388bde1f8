(** The single-server stack (Table II line 4): the whole lwIP-style
    stack — TCP and IP merged — in one asynchronous server on a
    dedicated core, talking to the SYSCALL server and the drivers over
    fast-path channels.

    This is the paper's intermediate design point between the original
    MINIX stack and the full NewtOS split: it "adopts our asynchronous
    channels" but keeps the stack monolithic, trading the split's fault
    isolation (a bug anywhere in TCP/IP/ICMP takes the whole stack
    down, and there is no packet filter to isolate) for fewer
    cross-domain hops: TCP hands packets to its in-process IP layer by
    function call, headers are patched in place rather than copied
    between immutable pools, and transmit completions are freed in a
    ring scan.

    The same protocol engines ({!Newt_net.Tcp}, ARP, the IPv4 codec)
    and socket calls ({!Tcp_srv.sockets}) run here as in the split
    servers — the decomposition is deployment configuration, not code. *)

type t

val create :
  Newt_hw.Machine.t ->
  proc:Proc.t ->
  registry:Newt_channels.Registry.t ->
  local_addr:Newt_net.Addr.Ipv4.t ->
  unit ->
  t

val add_iface :
  t ->
  addr:Newt_net.Addr.Ipv4.t ->
  mac:Newt_net.Addr.Mac.t ->
  drv:Drv_srv.t ->
  tx_chan:Msg.t Newt_channels.Sim_chan.t ->
  rx_chan:Msg.t Newt_channels.Sim_chan.t ->
  int

val add_route :
  t ->
  prefix:Newt_net.Addr.Ipv4.t ->
  bits:int ->
  iface:int ->
  gateway:Newt_net.Addr.Ipv4.t option ->
  unit

val add_neighbor :
  t -> iface:int -> Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Mac.t -> unit

val connect_sc :
  t ->
  from_sc:Msg.t Newt_channels.Sim_chan.t ->
  to_sc:Msg.t Newt_channels.Sim_chan.t ->
  unit
