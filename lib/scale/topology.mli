(** The split stack's graph (Figure 3), declared once.

    A topology names the members of each plane (SYSCALL is always the
    one member ["sc"]); {!channels} derives the channel matrix from the
    names, {!build} creates the servers and wires them, exporting each
    channel through its consumer so the directory republishes it when
    that consumer restarts (Section IV-C/D), and {!supervise} tells each
    crash and restart to exactly the neighbours holding the dead
    member's work. {!Newt_core.Host}, {!Sharded_stack} and the native
    runtime are its three lowerings.

    Partition rule: transport shard [i] is served by IP replica
    [i mod |ip|]; every IP replica holds a channel pair to every PF
    shard and to every driver. *)

type t = {
  tcp : string array;
  udp : string array;
  ip : string array;
  pf : string array;  (** Empty: no packet filter on the path. *)
  drv : string array;
}

val members : string -> int -> string array
(** [members base n] names an [n]-member plane: the bare [base] when
    [n = 1] (so a one-member plane keeps the unreplicated keys),
    [base0 .. base(n-1)] otherwise. *)

val indexed : string -> int -> string array
(** [base0 .. base(n-1)], even for one member. *)

val validate :
  ?shards:int ->
  ?ip_replicas:int ->
  pf_shards:int ->
  unit ->
  (unit, string) result
(** The plane sizes a stack accepts: at least one member per plane.
    When the transport is sharded ([shards] given), IP replicas and PF
    shards partition its shard indices, so neither may outnumber it. *)

val owner : t -> int -> int
(** The IP replica serving transport shard [i]: [i mod |ip|]. *)

type spec = { key : string; producer : string; consumer : string }
(** One channel: its directory key and its two members. *)

val channels : t -> spec list
(** The channel matrix, in creation order: the PF pairs (IP replica
    outer, PF shard inner); every [tcpN.to_ip] then every [ip.to_tcpN];
    the same for UDP; SYSCALL↔TCP then SYSCALL↔UDP; the driver pairs
    (IP replica outer, driver inner). Transport keys name the IP plane
    by its base name ["ip"]; the producer of [ip.to_tcpN] is the owning
    replica (the others hold it as a shared fan-out endpoint). *)

val key : t -> producer:string -> consumer:string -> string
(** The key of the channel from [producer] to [consumer]. Raises
    [Not_found] when the matrix has no such channel. *)

(** {1 Building} *)

type steer =
  src:Newt_net.Addr.Ipv4.t ->
  sport:int ->
  dst:Newt_net.Addr.Ipv4.t ->
  dport:int ->
  int

type plane = [ `Sc | `Tcp | `Udp | `Ip | `Pf | `Drv ]

type attachment = {
  iface : Newt_stack.Ip_srv.iface_config;
  hooks : Newt_stack.Ip_srv.driver_hooks;
  peer : Newt_net.Addr.Ipv4.t * Newt_net.Addr.Mac.t;
      (** The static neighbour on the link; the interface's subnet is
          routed through it. *)
}
(** What a driver offers one IP replica. *)

type stack = {
  topology : t;
  sc : Newt_stack.Syscall_srv.t;
  tcps : Newt_stack.Tcp_srv.t array;
  udps : Newt_stack.Udp_srv.t array;
  ips : Newt_stack.Ip_srv.t array;
  pfs : Newt_stack.Pf_srv.t array;
  drvs : Newt_stack.Component.t array;
  chans : (string, Newt_stack.Msg.t Newt_channels.Sim_chan.t) Hashtbl.t;
}

val chan : stack -> string -> Newt_stack.Msg.t Newt_channels.Sim_chan.t
(** The channel made for a key. *)

val build :
  t ->
  Newt_hw.Machine.t ->
  registry:Newt_channels.Registry.t ->
  ?directory:Newt_channels.Pubsub.t ->
  ?core:(string -> Newt_hw.Cpu.t) ->
  store:(string -> (string -> string -> unit) * (string -> string option)) ->
  local_addr:Newt_net.Addr.Ipv4.t ->
  ?tcp_config:Newt_net.Tcp.config ->
  ?conntrack_total:int ->
  ?steer_tcp:steer ->
  ?steer_pf:steer ->
  ?order:plane list ->
  ?chan:(string -> Newt_stack.Msg.t Newt_channels.Sim_chan.t) ->
  rules:Newt_pf.Rule.t list ->
  driver:(int -> Newt_stack.Component.t -> ip:int -> attachment) ->
  unit ->
  stack
(** Create the planes' components and servers in [order] (default
    sc, tcp, udp, ip, pf, drv) — each on [core name] (default: a fresh
    dedicated core) with the storage view [store name] — then the
    channels in {!channels} order, then the wiring. Creation allocates
    core, process, pool and request-database ids, which counterexample
    traces print, so a lowering keeps the order its traces were
    recorded in. [chan key] makes each channel (default: a simulated
    channel of 8192 slots, ids counted from 1 in {!channels} order, so
    every world numbers its channels alike). [driver d comp] makes
    driver [d]'s server on its component; the result is asked once per
    IP replica for that replica's interface. [steer_tcp] picks a TCP
    shard from a flow (default: shard 0; UDP is always member 0); PF
    shard [j] owns the flows with [steer_pf mod |pf| = j] and caps its
    conntrack partition at [conntrack_total / |pf|] (default 65536).

    The wiring every lowering shares comes last: each transport
    selects its source address from its IP replica's routes (falling
    back to [local_addr]); every PF shard is given [rules]
    ({!Newt_stack.Pf_srv.set_rules}, which saves them in the shard's
    own storage namespace, where its restore-state step reloads them)
    and the conntrack sources of every transport member. Those sources
    are read only by PF's restore-state step, which an unsupervised
    stack (the native run) never reaches. None of this creates a
    process, pool or request database. *)

val supervise : stack -> Newt_reliability.Reincarnation.t -> unit
(** Watch every member (planes in the order tcp, udp, ip, pf, drv):
    a transport shard's crash reclaims only its own receive buffers
    and its restart re-issues only its sockets' calls; an IP replica's
    crash and restart reach only the shards it serves; a PF shard or a
    driver reaches every IP replica. *)
