module Engine = Newt_sim.Engine
module Exec = Newt_sim.Exec
module Stats = Newt_sim.Stats
module Rng = Newt_sim.Rng
module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Rich_ptr = Newt_channels.Rich_ptr
module Registry = Newt_channels.Registry
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4
module Tcp = Newt_net.Tcp
module Tcp_wire = Newt_net.Tcp_wire
module Conntrack = Newt_pf.Conntrack

(* An in-flight packet: what we need to resubmit it after an IP crash. *)
type inflight = {
  chain : Rich_ptr.chain;
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
  tso : bool;
}

type pending_op =
  | P_none
  | P_connect of { req : int }
  | P_accept of { req : int; new_sock : Msg.socket_id }
  | P_recv of { req : int; max : int }
  | P_send of { req : int; data : Bytes.t; mutable off : int }

type socket = {
  sock_id : Msg.socket_id;
  mutable pcb : Tcp.pcb option;
  mutable listen_port : int option;
  mutable bound_port : int option;
  mutable backlog : int;
  accept_q : Tcp.pcb Queue.t;
  mutable op : pending_op;
  mutable dead : bool;  (* reset/closed *)
}

type t = {
  comp : Component.t;
  proc : Proc.t;
  registry : Registry.t;
  local_addr : Addr.Ipv4.t;
  tcp_config : Tcp.config;
  save : string -> string -> unit;
  load : string -> string option;
  pool : Pool.t;
  mutable engine : Tcp.t;
  db : inflight Component.Db.t;
  mutable to_ip : Msg.t Sim_chan.t option;
  mutable to_sc : Msg.t Sim_chan.t option;
  sockets : (Msg.socket_id, socket) Hashtbl.t;
  mutable select_pending : (int * Msg.socket_id list) option;
  mutable resubmit : inflight list;
  mutable ip_up : bool;
  mutable resubmitted : int;
  mutable src_select : Addr.Ipv4.t -> Addr.Ipv4.t;
  mutable port_select :
    src:Addr.Ipv4.t ->
    dst:Addr.Ipv4.t ->
    dst_port:int ->
    [ `Any | `Port of int | `Exhausted ];
  mutable break_tcp : Tcp.sabotage option;
  mutable stale_tuples : (Addr.Ipv4.t * int * Addr.Ipv4.t * int) list;
      (* Tuples captured at crash time for [Stale_established]. *)
  rng : Rng.t;
}

let ip_peer = 1
let comp t = t.comp
let proc t = t.proc
let costs t = Machine.costs (Component.machine t.comp)
let engine t = t.engine
let pool_in_use t = Pool.in_use t.pool
let segments_resubmitted t = t.resubmitted

(* Totals that survive restarts: the live engine plus what crash hooks
   banked from dead incarnations (the shard-stats fix). *)
let total_segs_out t =
  Component.archived t.comp "tcp.segs_out" + (Tcp.stats t.engine).Tcp.segs_out

let total_bytes_out t =
  Component.archived t.comp "tcp.bytes_out" + (Tcp.stats t.engine).Tcp.bytes_out

let free_chain t chain = List.iter (fun p -> try Pool.free t.pool p with Pool.Stale_pointer _ -> ()) chain


(* {2 Outgoing segments: the zero-copy handoff to IP} *)

let submit_packet t (pkt : inflight) =
  if not t.ip_up then t.resubmit <- pkt :: t.resubmit
  else
    match t.to_ip with
    | None -> free_chain t pkt.chain
    | Some chan ->
        let id =
          Component.Db.submit t.db ~peer:ip_peer ~payload:pkt ~abort:(fun _ p ->
              (* IP crashed: resubmit under a new id once it returns;
                 the data stays allocated until the new id confirms. *)
              t.resubmit <- p :: t.resubmit)
        in
        let sent =
          Proc.send t.proc chan
            (Msg.Tx_ip
               { id; chain = pkt.chain; src = pkt.src; dst = pkt.dst; proto = Ipv4.Tcp; tso = pkt.tso })
        in
        if not sent then begin
          (* Queue full: drop; TCP's retransmission recovers. *)
          ignore (Component.Db.complete t.db id);
          free_chain t pkt.chain
        end

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
      let alloc_write b =
        let ptr = Pool.alloc t.pool ~len:(Bytes.length b) in
        Pool.write t.pool ptr ~src:b ~src_off:0;
        ptr
      in
      match alloc_write hdr_bytes with
      | exception Pool.Pool_exhausted -> Stats.incr (Proc.stats t.proc) "pool_exhausted"
      | hdr_ptr -> (
          let payload_chunks =
            if Bytes.length payload = 0 then Some []
            else
              (* Large TSO segments span several pool slots. *)
              let slot = Pool.slot_size t.pool in
              let rec chunks off acc =
                if off >= Bytes.length payload then Some (List.rev acc)
                else
                  let len = min slot (Bytes.length payload - off) in
                  match Pool.alloc t.pool ~len with
                  | exception Pool.Pool_exhausted ->
                      free_chain t acc;
                      None
                  | ptr ->
                      Pool.write t.pool ptr ~src:payload ~src_off:off;
                      chunks (off + len) (ptr :: acc)
              in
              chunks 0 []
          in
          match payload_chunks with
          | None ->
              free_chain t [ hdr_ptr ];
              Stats.incr (Proc.stats t.proc) "pool_exhausted"
          | Some chunks ->
              let tso = Bytes.length payload > 1460 in
              submit_packet t { chain = hdr_ptr :: chunks; src; dst; tso }))

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

(* {2 Socket bookkeeping} *)

let sock t id =
  match Hashtbl.find_opt t.sockets id with
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
          op = P_none;
          dead = false;
        }
      in
      Hashtbl.add t.sockets id s;
      s

let reply t req result =
  match t.to_sc with
  | Some chan -> ignore (Proc.send t.proc chan (Msg.Sock_reply { id = req; result }))
  | None -> ()

let persist_listeners t =
  let listeners =
    Hashtbl.fold
      (fun id s acc ->
        match s.listen_port with
        | Some p -> (id, p, s.backlog) :: acc
        | None -> acc)
      t.sockets []
  in
  t.save "listeners" (Marshal.to_string (List.sort compare listeners) [])

let socket_readable s =
  s.dead
  || (not (Queue.is_empty s.accept_q))
  ||
  match s.pcb with
  | Some pcb -> Tcp.recv_available pcb > 0 || Tcp.recv_eof pcb
  | None -> false

let check_select t =
  match t.select_pending with
  | None -> ()
  | Some (req, watch) ->
      let ready =
        List.filter
          (fun id ->
            match Hashtbl.find_opt t.sockets id with
            | Some s -> socket_readable s
            | None -> true)
          watch
      in
      if ready <> [] then begin
        t.select_pending <- None;
        reply t req (Msg.Ok_ready ready)
      end

(* Try to complete a blocked operation after a TCP event. *)
let rec progress t s =
  match s.op with
  | P_none -> ()
  | P_connect { req } -> (
      match s.pcb with
      | Some pcb when Tcp.state pcb = Tcp.Established ->
          s.op <- P_none;
          reply t req Msg.Ok_unit
      | Some _ -> ()
      | None ->
          s.op <- P_none;
          reply t req (Msg.Err "connection failed"))
  | P_accept { req; new_sock } -> (
      match Queue.take_opt s.accept_q with
      | Some pcb ->
          s.op <- P_none;
          let child = sock t new_sock in
          child.pcb <- Some pcb;
          attach_handler t child pcb;
          reply t req (Msg.Ok_accepted new_sock)
      | None -> ())
  | P_recv { req; max } -> (
      match s.pcb with
      | Some pcb ->
          if Tcp.recv_available pcb > 0 then begin
            s.op <- P_none;
            reply t req (Msg.Ok_data (Tcp.recv pcb ~max))
          end
          else if Tcp.recv_eof pcb then begin
            s.op <- P_none;
            reply t req Msg.Ok_eof
          end
          else if s.dead then begin
            s.op <- P_none;
            reply t req (Msg.Err "connection reset")
          end
      | None ->
          s.op <- P_none;
          reply t req (Msg.Err "not connected"))
  | P_send ({ req; data; _ } as ps) -> (
      match s.pcb with
      | Some pcb ->
          let remaining = Bytes.length data - ps.off in
          if remaining > 0 then
            ps.off <- ps.off + Tcp.send pcb data ~off:ps.off ~len:remaining;
          if ps.off >= Bytes.length data then begin
            s.op <- P_none;
            reply t req (Msg.Ok_sent ps.off)
          end
          else if s.dead then begin
            s.op <- P_none;
            reply t req (Msg.Err "connection reset")
          end
      | None ->
          s.op <- P_none;
          reply t req (Msg.Err "not connected"))

and attach_handler t s pcb =
  Tcp.set_handler pcb (fun ev ->
      (match ev with
      | Tcp.Connected | Tcp.Readable | Tcp.Writable -> progress t s
      | Tcp.Accepted -> ()
      | Tcp.Closed_normally ->
          s.dead <- true;
          progress t s
      | Tcp.Reset ->
          s.dead <- true;
          s.pcb <- None;
          progress t s);
      check_select t)

(* A connection completing its handshake against a full accept queue is
   refused — RST and counted — never queued without bound: under an
   accept-starved listener (or a flood) the queue length is the
   application's problem, not the server's memory. *)
let enqueue_accept t s pcb =
  if Queue.length s.accept_q >= s.backlog then begin
    Stats.incr (Proc.stats t.proc) "listen_overflows";
    Tcp.abort pcb
  end
  else begin
    Queue.push pcb s.accept_q;
    (* Accepted connections produce events as soon as an accept claims
       them; meanwhile track and ack. *)
    progress t s;
    check_select t
  end

let handle_call t s req (call : Msg.sock_call) =
  match call with
  | Msg.Call_socket -> reply t req (Msg.Ok_socket s.sock_id)
  | Msg.Call_bind { port } ->
      s.bound_port <- Some port;
      reply t req Msg.Ok_unit
  | Msg.Call_listen { backlog } -> (
      match s.bound_port with
      | None -> reply t req (Msg.Err "not bound")
      | Some port -> (
          match
            Tcp.listen t.engine ~port ~on_accept:(fun pcb ->
                enqueue_accept t s pcb)
          with
          | () ->
              s.listen_port <- Some port;
              s.backlog <- max 1 backlog;
              persist_listeners t;
              reply t req Msg.Ok_unit
          | exception Invalid_argument m -> reply t req (Msg.Err m)))
  | Msg.Call_connect { dst; dst_port } -> (
      let src = t.src_select dst in
      match t.port_select ~src ~dst ~dst_port with
      | `Exhausted ->
          (* The selector ran out of usable source ports (for a sharded
             stack: every ephemeral port hashing to this shard is
             bound). A hard error to the caller, never a silent
             fallback to a port on the wrong queue. *)
          reply t req (Msg.Err "ephemeral ports exhausted")
      | (`Any | `Port _) as sel ->
          let src_port = match sel with `Port p -> Some p | `Any -> None in
          let pcb = Tcp.connect t.engine ~src ~dst ~dst_port ?src_port () in
          s.pcb <- Some pcb;
          s.op <- P_connect { req };
          attach_handler t s pcb;
          progress t s)
  | Msg.Call_send { data } ->
      (match s.op with
      | P_none ->
          s.op <- P_send { req; data; off = 0 };
          progress t s
      | P_connect _ | P_accept _ | P_recv _ | P_send _ ->
          reply t req (Msg.Err "operation pending"))
  | Msg.Call_recv { max; timeout } ->
      (match s.op with
      | P_none ->
          s.op <- P_recv { req; max };
          progress t s;
          if timeout > 0 then
            Proc.after t.proc timeout ~cost:100 (fun () ->
                match s.op with
                | P_recv { req = r; _ } when r = req ->
                    s.op <- P_none;
                    reply t req (Msg.Err "timeout")
                | P_recv _ | P_none | P_connect _ | P_accept _ | P_send _ -> ())
      | P_connect _ | P_accept _ | P_recv _ | P_send _ ->
          reply t req (Msg.Err "operation pending"))
  | Msg.Call_accept { new_sock } ->
      (match s.op with
      | P_none ->
          s.op <- P_accept { req; new_sock };
          progress t s
      | P_connect _ | P_accept _ | P_recv _ | P_send _ ->
          reply t req (Msg.Err "operation pending"))
  | Msg.Call_shutdown ->
      (match s.pcb with
      | Some pcb ->
          Tcp.close pcb;
          (* Unlike close: the socket stays alive for receiving. *)
          reply t req Msg.Ok_unit
      | None -> reply t req (Msg.Err "not connected"))
  | Msg.Call_select { watch; timeout } ->
      (match t.select_pending with
      | Some _ -> reply t req (Msg.Err "select already pending")
      | None ->
          t.select_pending <- Some (req, watch);
          check_select t;
          if t.select_pending <> None && timeout > 0 then
            Proc.after t.proc timeout ~cost:100 (fun () ->
                match t.select_pending with
                | Some (r, _) when r = req ->
                    t.select_pending <- None;
                    reply t req (Msg.Ok_ready [])
                | Some _ | None -> ()))
  | Msg.Call_sendto _ -> reply t req (Msg.Err "not a datagram socket")
  | Msg.Call_recvfrom _ -> reply t req (Msg.Err "not a datagram socket")
  | Msg.Call_close ->
      (match s.listen_port with
      | Some port ->
          Tcp.unlisten t.engine ~port;
          s.listen_port <- None;
          persist_listeners t
      | None -> ());
      (match s.pcb with Some pcb -> Tcp.close pcb | None -> ());
      s.dead <- true;
      (* The connection finishes closing in the engine; the socket is
         gone for the application, so its entry goes too. *)
      Hashtbl.remove t.sockets s.sock_id;
      reply t req Msg.Ok_unit

(* {2 Message handlers} *)

let handle_msg t msg =
  let c = costs t in
  match msg with
  | Msg.Sock_req { id; sock = sock_id; call } ->
      ( c.Costs.channel_demux,
        fun () -> handle_call t (sock t sock_id) id call )
  | Msg.Tx_ip_confirm { id; ok = _ } -> (
      ( 100,
        fun () ->
          match Component.Db.complete t.db id with
          | Some pkt -> free_chain t pkt.chain
          | None -> Stats.incr (Proc.stats t.proc) "stale_confirm" ))
  | Msg.Rx_deliver { buf; src; dst } ->
      (* Cost depends on the segment kind; peek at the length. *)
      let seg_bytes =
        match Registry.read t.registry buf with
        | b -> Some b
        | exception (Registry.Unknown_pool _ | Pool.Stale_pointer _) -> None
      in
      let cost =
        match seg_bytes with
        | Some b when Bytes.length b > 60 -> c.Costs.tcp_segment_work / 2
        | _ -> c.Costs.tcp_ack_work
      in
      ( cost + c.Costs.channel_marshal + c.Costs.channel_enqueue,
        fun () ->
          (match seg_bytes with
          | Some b -> (
              if not (Tcp.input_segment t.engine ~src ~dst b ~off:0 ~len:(Bytes.length b))
              then Stats.incr (Proc.stats t.proc) "bad_checksum")
          | None -> ());
          (* Return the buffer to IP. *)
          Option.iter
            (fun chan -> ignore (Proc.send t.proc chan (Msg.Rx_done { buf })))
            t.to_ip )
  | Msg.Tx_ip _ | Msg.Filter_req _ | Msg.Filter_verdict _ | Msg.Drv_tx _
  | Msg.Drv_tx_confirm _ | Msg.Drv_tx_confirm_batch _ | Msg.Rx_frame _
  | Msg.Rx_done _ | Msg.Sock_reply _
  | Msg.Sock_event _ ->
      (0, fun () -> Stats.incr (Proc.stats t.proc) "invalid_msg")

(* {2 Construction} *)

let chunk_size = 2048

let create comp ~registry ~local_addr ?tcp_config ~save ~load () =
  let machine = Component.machine comp in
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:8192 ~slot_size:chunk_size in
  Registry.register registry pool;
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
  let t =
    {
      comp;
      proc = Component.proc comp;
      registry;
      local_addr;
      tcp_config;
      save;
      load;
      pool;
      engine = placeholder_engine;
      db = Component.create_db comp;
      to_ip = None;
      to_sc = None;
      sockets = Hashtbl.create 64;
      select_pending = None;
      resubmit = [];
      ip_up = true;
      resubmitted = 0;
      src_select = (fun _ -> local_addr);
      port_select = (fun ~src:_ ~dst:_ ~dst_port:_ -> `Any);
      break_tcp = None;
      stale_tuples = [];
      rng = Rng.split (Engine.rng (Machine.engine machine));
    }
  in
  t.engine <- make_engine t;
  Component.register_pool comp pool;
  Component.on_crash comp (fun () ->
      (* The engine dies with the incarnation: bank its counters so
         per-shard stats neither double-count nor lose the pre-crash
         series. *)
      let st = Tcp.stats t.engine in
      Component.archive_add comp "tcp.segs_out" st.Tcp.segs_out;
      Component.archive_add comp "tcp.bytes_out" st.Tcp.bytes_out;
      t.select_pending <- None;
      (* Sabotage capture: the stale-Established bug needs the dead
         incarnation's connections to resurrect after restart. *)
      if t.break_tcp = Some Tcp.Stale_established then
        t.stale_tuples <- Tcp.established_tuples t.engine;
      Tcp.shutdown_all t.engine;
      Hashtbl.reset t.sockets;
      t.resubmit <- []);
  Component.on_restart comp ~step:"reload-listeners" (fun ~fresh:_ ->
      t.engine <- make_engine t;
      Tcp.set_sabotage t.engine t.break_tcp;
      (match t.break_tcp with
      | Some Tcp.Stale_established ->
          Tcp.resurrect t.engine t.stale_tuples;
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
              let s = sock t sock_id in
              s.bound_port <- Some port;
              s.listen_port <- Some port;
              s.backlog <- backlog;
              try
                Tcp.listen t.engine ~port ~on_accept:(fun pcb ->
                    enqueue_accept t s pcb)
              with Invalid_argument _ -> ())
            listeners);
  t

let set_src_select t f = t.src_select <- f
let set_port_select t f = t.port_select <- f

let set_break_tcp t mode =
  t.break_tcp <- mode;
  Tcp.set_sabotage t.engine mode

let connect_ip t ~to_ip ~from_ip =
  t.to_ip <- Some to_ip;
  Component.produce t.comp to_ip;
  Component.consume t.comp from_ip (handle_msg t)

let connect_sc t ~from_sc ~to_sc =
  t.to_sc <- Some to_sc;
  Component.produce t.comp to_sc;
  Component.consume t.comp from_sc (handle_msg t)

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
    (Tcp.established_tuples t.engine)

(* {2 Recovery} *)

let on_ip_crash t =
  t.ip_up <- false;
  ignore (Component.Db.abort_peer t.db ~peer:ip_peer)

let on_ip_restart t =
  t.ip_up <- true;
  let pkts = List.rev t.resubmit in
  t.resubmit <- [];
  (* "It is much more important that we quickly retransmit (possibly)
     lost packets to avoid the error detection and congestion
     avoidance" (Section V-D): resubmit everything with new ids. *)
  Proc.exec t.proc ~cost:(costs t).Costs.tcp_segment_work (fun () ->
      List.iter
        (fun pkt ->
          if Registry.chain_live t.registry pkt.chain then begin
            t.resubmitted <- t.resubmitted + 1;
            submit_packet t pkt
          end)
        pkts)

let repersist t = persist_listeners t

let socket_count t = Hashtbl.length t.sockets

let listen_overflows t = Stats.get (Proc.stats t.proc) "listen_overflows"
