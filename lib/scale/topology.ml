module Machine = Newt_hw.Machine
module Sim_chan = Newt_channels.Sim_chan
module Addr = Newt_net.Addr
module Conntrack = Newt_pf.Conntrack
module Component = Newt_stack.Component
module Msg = Newt_stack.Msg
module Ip_srv = Newt_stack.Ip_srv
module Pf_srv = Newt_stack.Pf_srv
module Tcp_srv = Newt_stack.Tcp_srv
module Udp_srv = Newt_stack.Udp_srv
module Syscall_srv = Newt_stack.Syscall_srv
module Reincarnation = Newt_reliability.Reincarnation

type t = {
  tcp : string array;
  udp : string array;
  ip : string array;
  pf : string array;
  drv : string array;
}

let indexed base n = Array.init n (Printf.sprintf "%s%d" base)
let members base n = if n = 1 then [| base |] else indexed base n

let validate ?shards ?(udp_shards = 1) ?(ip_replicas = 1) ~pf_shards () =
  let tcp = Option.value shards ~default:1 in
  if tcp < 1 then Error (Printf.sprintf "shards must be positive (got %d)" tcp)
  else if udp_shards < 1 then
    Error (Printf.sprintf "udp_shards must be positive (got %d)" udp_shards)
  else if ip_replicas < 1 || ip_replicas > tcp then
    Error
      (Printf.sprintf "need 1 <= ip_replicas <= shards (got %d and %d)"
         ip_replicas tcp)
  else if pf_shards < 1 then
    Error (Printf.sprintf "pf_shards must be positive (got %d)" pf_shards)
  else
    match shards with
    | Some n when pf_shards > n ->
        Error
          (Printf.sprintf "need 1 <= pf_shards <= shards (got %d and %d)"
             pf_shards n)
    | _ -> Ok ()

let owner t i = i mod Array.length t.ip

type spec = { key : string; producer : string; consumer : string }

(* Every key is "<producer side>.to_<consumer side>"; transports see the
   IP plane by its base name. *)
let link a b = a ^ ".to_" ^ b
let spec a b ~producer ~consumer = { key = link a b; producer; consumer }

(* Both directions between every member of [outer] and every member of
   [inner], outer index major. *)
let across outer inner =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> [ spec a b ~producer:a ~consumer:b; spec b a ~producer:b ~consumer:a ])
        (Array.to_list inner))
    (Array.to_list outer)

let channels t =
  let transport plane =
    let ms = Array.to_list plane in
    List.mapi (fun i m -> spec m "ip" ~producer:m ~consumer:t.ip.(owner t i)) ms
    @ List.mapi (fun i m -> spec "ip" m ~producer:t.ip.(owner t i) ~consumer:m) ms
  in
  let to_sc plane =
    let ms = Array.to_list plane in
    List.map (fun m -> spec "sc" m ~producer:"sc" ~consumer:m) ms
    @ List.map (fun m -> spec m "sc" ~producer:m ~consumer:"sc") ms
  in
  List.concat
    [
      across t.ip t.pf;
      transport t.tcp;
      transport t.udp;
      to_sc t.tcp;
      to_sc t.udp;
      across t.ip t.drv;
    ]

let key t ~producer ~consumer =
  (List.find (fun s -> s.producer = producer && s.consumer = consumer) (channels t))
    .key

(* {2 Building} *)

type steer =
  src:Addr.Ipv4.t -> sport:int -> dst:Addr.Ipv4.t -> dport:int -> int

type plane = [ `Sc | `Tcp | `Udp | `Ip | `Pf | `Drv ]

type attachment = {
  iface : Ip_srv.iface_config;
  hooks : Ip_srv.driver_hooks;
  peer : Addr.Ipv4.t * Addr.Mac.t;
}

type stack = {
  topology : t;
  sc : Syscall_srv.t;
  tcps : Tcp_srv.t array;
  udps : Udp_srv.t array;
  ips : Ip_srv.t array;
  pfs : Pf_srv.t array;
  drvs : Component.t array;
  chans : (string, Msg.t Sim_chan.t) Hashtbl.t;
}

let chan s key = Hashtbl.find s.chans key
let member_zero ~src:_ ~sport:_ ~dst:_ ~dport:_ = 0

let subnet (cfg : Ip_srv.iface_config) =
  let bits = cfg.Ip_srv.netmask_bits in
  let mask = if bits = 0 then 0l else Int32.shift_left (-1l) (32 - bits) in
  Addr.Ipv4.of_int32 (Int32.logand (Addr.Ipv4.to_int32 cfg.Ip_srv.addr) mask)

let build topo machine ~registry ?directory ?trace
    ?(core = fun _ -> Machine.add_dedicated_core machine) ~store ~local_addr
    ?tcp_config ?(conntrack_total = 65536) ?(steer_tcp = member_zero)
    ?(steer_udp = member_zero) ?(steer_pf = member_zero)
    ?(order : plane list = [ `Sc; `Tcp; `Udp; `Ip; `Pf; `Drv ]) ~chan ~driver () =
  let comps = Hashtbl.create 32 in
  let comp name =
    let c = Component.create machine ~name ~core:(core name) ?directory ?trace () in
    Hashtbl.replace comps name c;
    c
  in
  let server make name =
    let c = comp name in
    let save, load = store name in
    make c ~save ~load
  in
  let sc = lazy (Syscall_srv.create (comp "sc") ()) in
  let tcps =
    lazy
      (Array.map
         (server (fun c ~save ~load ->
              Tcp_srv.create c ~registry ~local_addr ?tcp_config ~save ~load ()))
         topo.tcp)
  in
  let udps =
    lazy
      (Array.map
         (server (fun c ~save ~load ->
              Udp_srv.create c ~registry ~local_addr ~save ~load ()))
         topo.udp)
  in
  let ips =
    lazy
      (Array.map
         (server (fun c ~save ~load -> Ip_srv.create c ~registry ~save ~load ()))
         topo.ip)
  in
  (* PF shards partition the conntrack table by the flow hash that
     steers packets to them. *)
  let np = Array.length topo.pf in
  let pfs =
    lazy
      (Array.mapi
         (fun j name ->
           let owns (f : Conntrack.flow) =
             np <= 1
             || steer_pf ~src:f.Conntrack.local_ip ~sport:f.Conntrack.local_port
                  ~dst:f.Conntrack.remote_ip ~dport:f.Conntrack.remote_port
                mod np
                = j
           in
           server
             (fun c ~save ~load ->
               Pf_srv.create c ~save ~load
                 ~max_entries:(max 1 (conntrack_total / np))
                 ~owns ())
             name)
         topo.pf)
  in
  let drvs =
    lazy
      (Array.mapi
         (fun d name ->
           let c = comp name in
           (c, driver d c))
         topo.drv)
  in
  List.iter
    (function
      | `Sc -> ignore (Lazy.force sc)
      | `Tcp -> ignore (Lazy.force tcps)
      | `Udp -> ignore (Lazy.force udps)
      | `Ip -> ignore (Lazy.force ips)
      | `Pf -> ignore (Lazy.force pfs)
      | `Drv -> ignore (Lazy.force drvs))
    order;
  let sc = Lazy.force sc
  and tcps = Lazy.force tcps
  and udps = Lazy.force udps
  and ips = Lazy.force ips
  and pfs = Lazy.force pfs
  and drvs, attach = Array.split (Lazy.force drvs) in
  (* Channels, each exported through its consumer: published under its
     key, and republished whenever the consumer is reincarnated. *)
  let chans = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = chan s.key in
      Component.export (Hashtbl.find comps s.consumer) ~key:s.key c;
      Hashtbl.replace chans s.key c)
    (channels topo);
  let get a b = Hashtbl.find chans (link a b) in
  let mine k i = owner topo i = k in
  if np > 0 then begin
    Array.iteri
      (fun k ip ->
        let name = topo.ip.(k) in
        Ip_srv.connect_pf_sharded ip ~steer:steer_pf
          ~pairs:(Array.map (fun p -> (get name p, get p name)) topo.pf))
      ips;
    Array.iteri
      (fun j pf ->
        let p = topo.pf.(j) in
        Array.iter
          (fun k -> Pf_srv.connect_ip pf ~from_ip:(get k p) ~to_ip:(get p k))
          topo.ip)
      pfs
  end;
  (* IP and SYSCALL <-> each transport plane. An IP replica consumes
     only its own shards' request channels but keeps the full fan-out,
     so a received frame can steer to any shard. *)
  let transport proto plane ~steer connect =
    Array.iteri
      (fun k ip ->
        Ip_srv.connect_transport_sharded ~mine:(mine k) ip ~proto ~steer
          ~pairs:(Array.map (fun m -> (get m "ip", get "ip" m)) plane))
      ips;
    Syscall_srv.connect_transport_sharded sc ~transport:proto
      ~pairs:(Array.map (fun m -> (get "sc" m, get m "sc")) plane);
    Array.iteri
      (fun i m ->
        connect i ~to_ip:(get m "ip") ~from_ip:(get "ip" m) ~from_sc:(get "sc" m)
          ~to_sc:(get m "sc"))
      plane
  in
  transport `Tcp topo.tcp ~steer:steer_tcp (fun i ~to_ip ~from_ip ~from_sc ~to_sc ->
      Tcp_srv.connect_ip tcps.(i) ~to_ip ~from_ip;
      Tcp_srv.connect_sc tcps.(i) ~from_sc ~to_sc);
  transport `Udp topo.udp ~steer:steer_udp (fun i ~to_ip ~from_ip ~from_sc ~to_sc ->
      Udp_srv.connect_ip udps.(i) ~to_ip ~from_ip;
      Udp_srv.connect_sc udps.(i) ~from_sc ~to_sc);
  (* Interfaces: IP replica [k]'s interface [d] is driver [d]. *)
  Array.iteri
    (fun k ip ->
      let name = topo.ip.(k) in
      Array.iteri
        (fun d drv ->
          let a = attach.(d) ~ip:k in
          let iface =
            Ip_srv.add_iface ip a.iface ~hooks:a.hooks ~tx_chan:(get name drv)
              ~rx_chan:(get drv name)
          in
          Ip_srv.add_route ip ~prefix:(subnet a.iface)
            ~bits:a.iface.Ip_srv.netmask_bits ~iface ~gateway:None;
          let peer_addr, peer_mac = a.peer in
          Ip_srv.add_neighbor ip ~iface peer_addr peer_mac)
        topo.drv)
    ips;
  { topology = topo; sc; tcps; udps; ips; pfs; drvs; chans }

(* {2 Supervision} *)

let supervise s rs =
  let topo = s.topology in
  let watch comp ~crash ~restart =
    Reincarnation.watch rs comp ~notify_crash:crash ~notify_restart:restart ()
  in
  let every_ip f = Array.to_list (Array.map (fun ip () -> f ip) s.ips) in
  let served_by k plane f =
    List.filteri (fun i _ -> owner topo i = k) (Array.to_list plane)
    |> List.map (fun m () -> f m)
  in
  Array.iteri
    (fun i tcp ->
      watch (Tcp_srv.comp tcp)
        ~crash:
          [
            (fun () ->
              Ip_srv.on_transport_shard_crash s.ips.(owner topo i) ~proto:`Tcp
                ~shard:i);
          ]
        ~restart:
          [ (fun () -> Syscall_srv.on_transport_restart s.sc ~transport:`Tcp ~shard:i) ])
    s.tcps;
  Array.iteri
    (fun i udp ->
      watch (Udp_srv.comp udp)
        ~crash:
          (every_ip (fun ip -> Ip_srv.on_transport_shard_crash ip ~proto:`Udp ~shard:i))
        ~restart:
          [ (fun () -> Syscall_srv.on_transport_restart s.sc ~transport:`Udp ~shard:i) ])
    s.udps;
  Array.iteri
    (fun k ip ->
      watch (Ip_srv.comp ip)
        ~crash:
          (served_by k s.tcps Tcp_srv.on_ip_crash
          @ served_by k s.udps Udp_srv.on_ip_crash)
        ~restart:
          (served_by k s.tcps Tcp_srv.on_ip_restart
          @ served_by k s.udps Udp_srv.on_ip_restart))
    s.ips;
  Array.iteri
    (fun j pf ->
      watch (Pf_srv.comp pf)
        ~crash:(every_ip (fun ip -> Ip_srv.on_pf_crash ip ~shard:j))
        ~restart:(every_ip (fun ip -> Ip_srv.on_pf_restart ip ~shard:j)))
    s.pfs;
  Array.iteri
    (fun d comp ->
      watch comp
        ~crash:(every_ip (fun ip -> Ip_srv.on_drv_crash ip ~iface:d))
        ~restart:(every_ip (fun ip -> Ip_srv.on_drv_restart ip ~iface:d)))
    s.drvs
