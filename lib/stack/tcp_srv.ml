module Engine = Newt_sim.Engine
module Exec = Newt_sim.Exec
module Stats = Newt_sim.Stats
module Rng = Newt_sim.Rng
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire
module Conntrack = Newt_pf.Conntrack

type op =
  | P_connect
  | P_accept of Msg.socket_id
  | P_recv of int  (* max bytes *)
  | P_send of { data : Bytes.t; mutable off : int }

type socket = {
  sock_id : Msg.socket_id;
  mutable pcb : Tcp.pcb option;
  mutable listen_port : int option;
  mutable bound_port : int option;
  mutable backlog : int;
  accept_q : Tcp.pcb Queue.t;
  b : op Transport.blocked;
  mutable dead : bool;  (* reset/closed *)
}

(* The socket calls over an engine: all of the server but the IP half,
   and all the single server runs of it. *)
type sockets = {
  front : socket Transport.front;
  sproc : Proc.t;
  mutable engine : Tcp.t;
  save : string -> string -> unit;
  mutable src_select : Addr.Ipv4.t -> Addr.Ipv4.t;
  mutable port_select :
    src:Addr.Ipv4.t ->
    dst:Addr.Ipv4.t ->
    dst_port:int ->
    [ `Any | `Port of int | `Exhausted ];
}

type t = {
  comp : Component.t;
  proc : Proc.t;
  tcp_config : Tcp.config;
  load : string -> string option;
  ip : Transport.ip;
  socks : sockets;
  mutable break_tcp : Tcp.sabotage option;
  mutable stale_tuples : (Addr.Ipv4.t * int * Addr.Ipv4.t * int) list;
      (* Tuples captured at crash time for [Stale_established]. *)
  rng : Rng.t;
}

let comp t = t.comp
let costs t = Machine.costs (Component.machine t.comp)
let engine t = t.socks.engine

(* Totals that survive restarts: the live engine plus what crash hooks
   banked from dead incarnations (the shard-stats fix). *)
let total_segs_out t =
  Component.archived t.comp "tcp.segs_out" + (Tcp.stats (engine t)).Tcp.segs_out

let total_bytes_out t =
  Component.archived t.comp "tcp.bytes_out" + (Tcp.stats (engine t)).Tcp.bytes_out

(* {2 Outgoing segments: the zero-copy handoff to IP} *)

let emit_segment t ~src ~dst (hdr : Tcp_wire.header) ~payload =
  let c = costs t in
  let cost =
    c.Costs.tcp_segment_work + c.Costs.channel_marshal + c.Costs.channel_enqueue
  in
  Proc.exec t.proc ~cost (fun () ->
      (* Header chunk: encoded with a partial checksum for the NIC's
         offload engine to finalize. Payload chunk(s): the segment
         bytes, zero-copy from here on. *)
      let hdr_bytes = Tcp_wire.encode ~src ~dst ~partial_csum:true hdr ~payload:Bytes.empty in
      let tso = Bytes.length payload > 1460 in
      if not (Transport.transmit t.ip ~src ~dst ~tso hdr_bytes payload ~off:0) then
        Stats.incr (Proc.stats t.proc) "pool_exhausted")

let make_engine t =
  let inc_at_create = Proc.incarnation t.proc in
  Tcp.create ~config:t.tcp_config
    {
      Tcp.now =
        (fun () -> Exec.now (Machine.exec (Component.machine t.comp)));
      set_timer =
        (fun delay f ->
          Exec.schedule
            (Machine.exec (Component.machine t.comp))
            ~core:(Newt_hw.Cpu.id (Proc.core t.proc))
            delay
            (fun () ->
              if Proc.alive t.proc && Proc.incarnation t.proc = inc_at_create
              then Proc.exec t.proc ~cost:200 f));
      emit =
        (fun ~src ~dst hdr ~payload ->
          if Proc.incarnation t.proc = inc_at_create then
            emit_segment t ~src ~dst hdr ~payload);
      random = (fun bound -> Rng.int t.rng bound);
    }

(* {2 Socket calls} *)

let socket_readable s =
  s.dead
  || (not (Queue.is_empty s.accept_q))
  ||
  match s.pcb with
  | Some pcb -> Tcp.recv_available pcb > 0 || Tcp.recv_eof pcb
  | None -> false

let sockets proc engine ~src_select ~save =
  {
    front = Transport.front proc ~size:64 ~readable:socket_readable;
    sproc = proc;
    engine;
    save;
    src_select;
    port_select = (fun ~src:_ ~dst:_ ~dst_port:_ -> `Any);
  }

let reply_to k chan = Transport.reply_to k.front chan

let sock k id =
  let table = Transport.sockets k.front in
  match Hashtbl.find_opt table id with
  | Some s -> s
  | None ->
      let s =
        {
          sock_id = id;
          pcb = None;
          listen_port = None;
          bound_port = None;
          backlog = 0;
          accept_q = Queue.create ();
          b = Transport.blocked ();
          dead = false;
        }
      in
      Hashtbl.add table id s;
      s

let persist_listeners k =
  let listeners =
    Hashtbl.fold
      (fun id s acc ->
        match s.listen_port with
        | Some p -> (id, p, s.backlog) :: acc
        | None -> acc)
      (Transport.sockets k.front) []
  in
  k.save "listeners" (Marshal.to_string (List.sort compare listeners) [])

let finish k s result = Transport.finish k.front s.b result

(* Try to complete a blocked operation after a TCP event. *)
let rec progress k s =
  match s.b.op with
  | None -> ()
  | Some P_connect -> (
      match s.pcb with
      | Some pcb when Tcp.state pcb = Tcp.Established -> finish k s Msg.Ok_unit
      | Some _ -> ()
      | None -> finish k s (Msg.Err "connection failed"))
  | Some (P_accept new_sock) -> (
      match Queue.take_opt s.accept_q with
      | Some pcb ->
          let child = sock k new_sock in
          child.pcb <- Some pcb;
          attach_handler k child pcb;
          finish k s (Msg.Ok_accepted new_sock)
      | None -> ())
  | Some (P_recv max) -> (
      match s.pcb with
      | Some pcb ->
          if Tcp.recv_available pcb > 0 then finish k s (Msg.Ok_data (Tcp.recv pcb ~max))
          else if Tcp.recv_eof pcb then finish k s Msg.Ok_eof
          else if s.dead then finish k s (Msg.Err "connection reset")
      | None -> finish k s (Msg.Err "not connected"))
  | Some (P_send ({ data; _ } as ps)) -> (
      match s.pcb with
      | Some pcb ->
          let remaining = Bytes.length data - ps.off in
          if remaining > 0 then
            ps.off <- ps.off + Tcp.send pcb data ~off:ps.off ~len:remaining;
          if ps.off >= Bytes.length data then finish k s (Msg.Ok_sent ps.off)
          else if s.dead then finish k s (Msg.Err "connection reset")
      | None -> finish k s (Msg.Err "not connected"))

and attach_handler k s pcb =
  Tcp.set_handler pcb (fun ev ->
      (match ev with
      | Tcp.Connected | Tcp.Readable | Tcp.Writable -> progress k s
      | Tcp.Accepted -> ()
      | Tcp.Closed_normally ->
          s.dead <- true;
          progress k s
      | Tcp.Reset ->
          s.dead <- true;
          s.pcb <- None;
          progress k s);
      Transport.check_select k.front)

(* A connection completing its handshake against a full accept queue is
   refused — RST and counted — never queued without bound: under an
   accept-starved listener (or a flood) the queue length is the
   application's problem, not the server's memory. *)
let enqueue_accept k s pcb =
  if Queue.length s.accept_q >= s.backlog then begin
    Stats.incr (Proc.stats k.sproc) "listen_overflows";
    Tcp.abort pcb
  end
  else begin
    Queue.push pcb s.accept_q;
    (* Accepted connections produce events as soon as an accept claims
       them; meanwhile track and ack. *)
    progress k s;
    Transport.check_select k.front
  end

(* Block [op] on [s]: [start] it, then try to complete it at once. *)
let block k s req op ~timeout start =
  Transport.block k.front s.b req op ~timeout ~expired:(Msg.Err "timeout") (fun () ->
      start ();
      progress k s)

let sock_call k req sock_id (call : Msg.sock_call) =
  let s = sock k sock_id in
  let reply = Transport.reply k.front in
  match call with
  | Msg.Call_socket -> reply req (Msg.Ok_socket s.sock_id)
  | Msg.Call_bind { port } ->
      s.bound_port <- Some port;
      reply req Msg.Ok_unit
  | Msg.Call_listen { backlog } -> (
      match s.bound_port with
      | None -> reply req (Msg.Err "not bound")
      | Some port -> (
          match
            Tcp.listen k.engine ~port ~on_accept:(fun pcb -> enqueue_accept k s pcb)
          with
          | () ->
              s.listen_port <- Some port;
              s.backlog <- max 1 backlog;
              persist_listeners k;
              reply req Msg.Ok_unit
          | exception Invalid_argument m -> reply req (Msg.Err m)))
  | Msg.Call_connect { dst; dst_port } -> (
      let src = k.src_select dst in
      match k.port_select ~src ~dst ~dst_port with
      | `Exhausted ->
          (* The selector ran out of usable source ports (for a sharded
             stack: every ephemeral port hashing to this shard is
             bound). A hard error to the caller, never a silent
             fallback to a port on the wrong queue. *)
          reply req (Msg.Err "ephemeral ports exhausted")
      | (`Any | `Port _) as sel ->
          let src_port = match sel with `Port p -> Some p | `Any -> None in
          block k s req P_connect ~timeout:0 (fun () ->
              let pcb = Tcp.connect k.engine ~src ~dst ~dst_port ?src_port () in
              s.pcb <- Some pcb;
              attach_handler k s pcb))
  | Msg.Call_send { data } -> block k s req (P_send { data; off = 0 }) ~timeout:0 ignore
  | Msg.Call_recv { max; timeout } -> block k s req (P_recv max) ~timeout ignore
  | Msg.Call_accept { new_sock } -> block k s req (P_accept new_sock) ~timeout:0 ignore
  | Msg.Call_shutdown -> (
      match s.pcb with
      | Some pcb ->
          Tcp.close pcb;
          (* Unlike close: the socket stays alive for receiving. *)
          reply req Msg.Ok_unit
      | None -> reply req (Msg.Err "not connected"))
  | Msg.Call_select { watch; timeout } -> Transport.select k.front req watch ~timeout
  | Msg.Call_sendto _ | Msg.Call_recvfrom _ -> reply req (Msg.Err "not a datagram socket")
  | Msg.Call_close ->
      (match s.listen_port with
      | Some port ->
          Tcp.unlisten k.engine ~port;
          s.listen_port <- None;
          persist_listeners k
      | None -> ());
      (match s.pcb with Some pcb -> Tcp.close pcb | None -> ());
      s.dead <- true;
      (* The connection finishes closing in the engine; the socket is
         gone for the application, so its entry goes too. *)
      Hashtbl.remove (Transport.sockets k.front) s.sock_id;
      reply req Msg.Ok_unit

(* {2 Message handlers} *)

let handle_msg t =
  Transport.handler t.ip
    ~call:(fun id sock call ->
      ((costs t).Costs.channel_demux, fun () -> sock_call t.socks id sock call))
    ~rx:(fun buf ~src ~dst ->
      (* Cost depends on the segment kind; peek at the length. *)
      let c = costs t in
      let seg_bytes = Transport.read t.ip buf in
      let cost =
        match seg_bytes with
        | Some b when Bytes.length b > 60 -> c.Costs.tcp_segment_work / 2
        | _ -> c.Costs.tcp_ack_work
      in
      ( cost + c.Costs.channel_marshal + c.Costs.channel_enqueue,
        fun () ->
          match seg_bytes with
          | Some b ->
              if not (Tcp.input_segment (engine t) ~src ~dst b ~off:0 ~len:(Bytes.length b))
              then Stats.incr (Proc.stats t.proc) "bad_checksum"
          | None -> () ))

(* {2 Construction} *)

let create comp ~registry ~local_addr ?tcp_config ~save ~load () =
  let machine = Component.machine comp in
  let ip =
    Transport.ip comp ~registry ~proto:Ipv4.Tcp ~slots:8192
      ~restart_cost:(Machine.costs machine).Costs.tcp_segment_work
  in
  let tcp_config = Option.value tcp_config ~default:Tcp.default_config in
  (* A throwaway engine breaks the [t]/[engine] knot; it is replaced
     before anything can touch it. *)
  let placeholder_engine =
    Tcp.create
      {
        Tcp.now = (fun () -> 0);
        set_timer = (fun _ _ () -> ());
        emit = (fun ~src:_ ~dst:_ _ ~payload:_ -> ());
        random = (fun _ -> 0);
      }
  in
  let proc = Component.proc comp in
  let t =
    {
      comp;
      proc;
      tcp_config;
      load;
      ip;
      socks = sockets proc placeholder_engine ~src_select:(fun _ -> local_addr) ~save;
      break_tcp = None;
      stale_tuples = [];
      rng = Rng.split (Engine.rng (Machine.engine machine));
    }
  in
  t.socks.engine <- make_engine t;
  Component.on_crash comp (fun () ->
      (* The engine dies with the incarnation: bank its counters so
         per-shard stats neither double-count nor lose the pre-crash
         series. *)
      let st = Tcp.stats (engine t) in
      Component.archive_add comp "tcp.segs_out" st.Tcp.segs_out;
      Component.archive_add comp "tcp.bytes_out" st.Tcp.bytes_out;
      (* Sabotage capture: the stale-Established bug needs the dead
         incarnation's connections to resurrect after restart. *)
      if t.break_tcp = Some Tcp.Stale_established then
        t.stale_tuples <- Tcp.established_tuples (engine t);
      Tcp.shutdown_all (engine t);
      Transport.reset t.socks.front);
  Component.on_restart comp ~step:"reload-listeners" (fun ~fresh:_ ->
      t.socks.engine <- make_engine t;
      Tcp.set_sabotage (engine t) t.break_tcp;
      (match t.break_tcp with
      | Some Tcp.Stale_established ->
          Tcp.resurrect (engine t) t.stale_tuples;
          t.stale_tuples <- []
      | Some Tcp.Ack_from_closed | None -> ());
      (* Listening sockets are the recoverable part of our state
         (Table I): re-open them from the storage server. *)
      match t.load "listeners" with
      | None -> ()
      | Some blob ->
          (* The backlog is part of the listener's recoverable state:
             a restarted shard enforces the same cap. *)
          let listeners : (Msg.socket_id * int * int) list =
            Marshal.from_string blob 0
          in
          List.iter
            (fun (sock_id, port, backlog) ->
              let s = sock t.socks sock_id in
              s.bound_port <- Some port;
              s.listen_port <- Some port;
              s.backlog <- backlog;
              try
                Tcp.listen (engine t) ~port ~on_accept:(fun pcb ->
                    enqueue_accept t.socks s pcb)
              with Invalid_argument _ -> ())
            listeners);
  t

let set_src_select t f = t.socks.src_select <- f
let set_port_select t f = t.socks.port_select <- f

let set_break_tcp t mode =
  t.break_tcp <- mode;
  Tcp.set_sabotage (engine t) mode

let connect_ip t ~to_ip ~from_ip = Transport.connect_ip t.ip ~to_ip ~from_ip (handle_msg t)

let connect_sc t ~from_sc ~to_sc =
  Transport.connect_sc t.ip t.socks.front ~from_sc ~to_sc (handle_msg t)

let conntrack_flows t =
  List.map
    (fun (lip, lp, rip, rp) ->
      {
        Conntrack.proto = Conntrack.Ct_tcp;
        local_ip = lip;
        local_port = lp;
        remote_ip = rip;
        remote_port = rp;
      })
    (Tcp.established_tuples (engine t))

let on_ip_crash t = Transport.on_ip_crash t.ip
let on_ip_restart t = Transport.on_ip_restart t.ip
let repersist t = persist_listeners t.socks
let socket_count t = Hashtbl.length (Transport.sockets t.socks.front)
let listen_overflows t = Stats.get (Proc.stats t.proc) "listen_overflows"
