module Stats = Newt_sim.Stats
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4
module Udp = Newt_net.Udp
module Conntrack = Newt_pf.Conntrack

type op = { max : int; from : bool  (* recvfrom: report the source *) }

type socket = {
  sock_id : Msg.socket_id;
  mutable bound_port : int;  (* 0 = unbound *)
  mutable peer : (Addr.Ipv4.t * int) option;
  rxq : (Addr.Ipv4.t * int * Bytes.t) Queue.t;
  b : op Transport.blocked;
}

type t = {
  comp : Component.t;
  proc : Proc.t;
  local_addr : Addr.Ipv4.t;
  save : string -> string -> unit;
  load : string -> string option;
  ip : Transport.ip;
  front : socket Transport.front;
  mutable next_ephemeral : int;
  mutable src_select : Addr.Ipv4.t -> Addr.Ipv4.t;
  mutable datagrams_out : int;
}

let max_rxq = 64

let comp t = t.comp
let costs t = Machine.costs (Component.machine t.comp)
let datagrams_out t = t.datagrams_out

let persist t =
  let socks =
    Hashtbl.fold
      (fun id s acc -> (id, s.bound_port, s.peer) :: acc)
      (Transport.sockets t.front) []
  in
  t.save "sockets" (Marshal.to_string (List.sort compare socks) [])

let new_socket id ~bound_port ~peer =
  { sock_id = id; bound_port; peer; rxq = Queue.create (); b = Transport.blocked () }

let sock t id =
  let table = Transport.sockets t.front in
  match Hashtbl.find_opt table id with
  | Some s -> s
  | None ->
      let s = new_socket id ~bound_port:0 ~peer:None in
      Hashtbl.add table id s;
      persist t;
      s

(* Port 0 is no port: it names no socket, bound or not. *)
let find_by_port t port =
  if port = 0 then None
  else
    Hashtbl.fold
      (fun _ s acc -> if s.bound_port = port then Some s else acc)
      (Transport.sockets t.front) None

(* Bind an unbound socket to a free ephemeral port; false when every
   one is taken. *)
let bind_ephemeral t s =
  let rec go n =
    n <= 16384
    &&
    let port = t.next_ephemeral in
    t.next_ephemeral <- (if port >= 65535 then 49152 else port + 1);
    if find_by_port t port = None then begin
      s.bound_port <- port;
      persist t;
      true
    end
    else go (n + 1)
  in
  s.bound_port <> 0 || go 0

let progress t s =
  match s.b.op with
  | None -> ()
  | Some { max; from } -> (
      match Queue.take_opt s.rxq with
      | Some (src, src_port, data) ->
          let data = if Bytes.length data > max then Bytes.sub data 0 max else data in
          Transport.finish t.front s.b
            (if from then Msg.Ok_data_from { data; src; src_port } else Msg.Ok_data data)
      | None -> ())

let send_datagram t s (dst, dst_port) data =
  if not (bind_ephemeral t s) then Msg.Err "ephemeral ports exhausted"
  else
    let src = t.src_select dst in
    let dg =
      Udp.encode_partial_csum ~src ~dst { Udp.src_port = s.bound_port; dst_port } ~payload:data
    in
    (* Zero-copy split: 8-byte header chunk + payload chunk. *)
    let hdr = Bytes.sub dg 0 Udp.header_size in
    if Transport.transmit t.ip ~src ~dst ~tso:false hdr dg ~off:Udp.header_size then begin
      t.datagrams_out <- t.datagrams_out + 1;
      Msg.Ok_sent (Bytes.length data)
    end
    else Msg.Err "out of buffers"

let handle_call t s req (call : Msg.sock_call) =
  let reply = Transport.reply t.front req in
  let recv max ~from ~timeout =
    Transport.block t.front s.b req { max; from } ~timeout ~expired:(Msg.Err "timeout")
      (fun () -> progress t s)
  in
  match call with
  | Msg.Call_socket -> reply (Msg.Ok_socket s.sock_id)
  | Msg.Call_bind { port } ->
      s.bound_port <- port;
      persist t;
      reply Msg.Ok_unit
  | Msg.Call_connect { dst; dst_port } ->
      if bind_ephemeral t s then begin
        s.peer <- Some (dst, dst_port);
        persist t;
        reply Msg.Ok_unit
      end
      else reply (Msg.Err "ephemeral ports exhausted")
  | Msg.Call_send { data } -> (
      match s.peer with
      | Some peer -> reply (send_datagram t s peer data)
      | None -> reply (Msg.Err "not connected"))
  | Msg.Call_sendto { data; dst; dst_port } -> reply (send_datagram t s (dst, dst_port) data)
  | Msg.Call_recvfrom { max; timeout } -> recv max ~from:true ~timeout
  | Msg.Call_recv { max; timeout } -> recv max ~from:false ~timeout
  | Msg.Call_select { watch; timeout } -> Transport.select t.front req watch ~timeout
  | Msg.Call_shutdown -> reply (Msg.Err "udp cannot shutdown")
  | Msg.Call_listen _ -> reply (Msg.Err "udp cannot listen")
  | Msg.Call_accept _ -> reply (Msg.Err "udp cannot accept")
  | Msg.Call_close ->
      Hashtbl.remove (Transport.sockets t.front) s.sock_id;
      persist t;
      reply Msg.Ok_unit

let handle_rx t dg_bytes ~src ~dst =
  match Udp.decode ~src ~dst dg_bytes with
  | None -> Stats.incr (Proc.stats t.proc) "bad_checksum"
  | Some (h, payload) -> (
      match find_by_port t h.Udp.dst_port with
      | None -> Stats.incr (Proc.stats t.proc) "no_socket"
      | Some s ->
          if Queue.length s.rxq < max_rxq then Queue.push (src, h.Udp.src_port, payload) s.rxq;
          progress t s;
          Transport.check_select t.front)

let handle_msg t =
  Transport.handler t.ip
    ~call:(fun id sock_id call ->
      (* A send builds and checksums a datagram: the same protocol work
         as a datagram received. *)
      let c = costs t in
      let work =
        match call with
        | Msg.Call_send _ | Msg.Call_sendto _ -> c.Costs.udp_segment_work
        | _ -> 0
      in
      (c.Costs.channel_demux + work, fun () -> handle_call t (sock t sock_id) id call))
    ~rx:(fun buf ~src ~dst ->
      let c = costs t in
      ( c.Costs.udp_segment_work + c.Costs.channel_marshal + c.Costs.channel_enqueue,
        fun () -> Option.iter (fun b -> handle_rx t b ~src ~dst) (Transport.read t.ip buf) ))

let create comp ~registry ~local_addr ~save ~load () =
  let ip =
    Transport.ip comp ~registry ~proto:Ipv4.Udp ~slots:2048
      ~restart_cost:(Machine.costs (Component.machine comp)).Costs.udp_segment_work
  in
  let proc = Component.proc comp in
  let t =
    {
      comp;
      proc;
      local_addr;
      save;
      load;
      ip;
      front = Transport.front proc ~size:32 ~readable:(fun s -> not (Queue.is_empty s.rxq));
      next_ephemeral = 49152;
      src_select = (fun _ -> local_addr);
      datagrams_out = 0;
    }
  in
  Component.on_crash comp (fun () -> Transport.reset t.front);
  Component.on_restart comp ~step:"reload-sockets" (fun ~fresh:_ ->
      (* "It is easy to recreate the sockets after the crash"
         (Section V-D): the 4-tuples come back from the storage
         server. *)
      (match t.load "sockets" with
      | None -> ()
      | Some blob ->
          let socks : (Msg.socket_id * int * (Addr.Ipv4.t * int) option) list =
            Marshal.from_string blob 0
          in
          List.iter
            (fun (id, bound_port, peer) ->
              (* Not via [sock]: its eager persist would overwrite the
                 saved blob with a half-restored table — fatal at the
                 next crash. *)
              Hashtbl.replace (Transport.sockets t.front) id (new_socket id ~bound_port ~peer))
            socks);
      (* Re-persist the fully restored table. *)
      persist t);
  t

let set_src_select t f = t.src_select <- f
let connect_ip t ~to_ip ~from_ip = Transport.connect_ip t.ip ~to_ip ~from_ip (handle_msg t)

let connect_sc t ~from_sc ~to_sc =
  Transport.connect_sc t.ip t.front ~from_sc ~to_sc (handle_msg t)

let conntrack_flows t =
  Hashtbl.fold
    (fun _ s acc ->
      match s.peer with
      | Some (rip, rport) when s.bound_port <> 0 ->
          {
            Conntrack.proto = Conntrack.Ct_udp;
            local_ip = t.local_addr;
            local_port = s.bound_port;
            remote_ip = rip;
            remote_port = rport;
          }
          :: acc
      | Some _ | None -> acc)
    (Transport.sockets t.front) []

let on_ip_crash t = Transport.on_ip_crash t.ip
let on_ip_restart t = Transport.on_ip_restart t.ip
let repersist t = persist t
