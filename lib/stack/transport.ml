module Stats = Newt_sim.Stats
module Sim_chan = Newt_channels.Sim_chan
module Pool = Newt_channels.Pool
module Rich_ptr = Newt_channels.Rich_ptr
module Registry = Newt_channels.Registry
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4

(* {1 Socket front} *)

type 'op blocked = {
  mutable op : 'op option;
  mutable req : int;
  mutable cancel : unit -> unit;
}

let blocked () = { op = None; req = 0; cancel = ignore }

type 's front = {
  proc : Proc.t;
  readable : 's -> bool;
  sockets : (Msg.socket_id, 's) Hashtbl.t;
  mutable to_sc : Msg.t Sim_chan.t option;
  select : Msg.socket_id list blocked;
      (* At most one select outstanding per calling process instance. *)
}

let front proc ~size ~readable =
  { proc; readable; sockets = Hashtbl.create size; to_sc = None; select = blocked () }

let sockets f = f.sockets
let reply_to f chan = f.to_sc <- Some chan

let reply f req result =
  match f.to_sc with
  | Some chan -> ignore (Proc.send f.proc chan (Msg.Sock_reply { id = req; result }))
  | None -> ()

let finish f b result =
  b.op <- None;
  b.cancel ();
  b.cancel <- ignore;
  reply f b.req result

let block f b req op ~timeout ~expired progress =
  match b.op with
  | Some _ -> reply f req (Msg.Err "operation pending")
  | None ->
      b.op <- Some op;
      b.req <- req;
      progress ();
      if timeout > 0 && Option.is_some b.op then
        b.cancel <-
          Proc.after f.proc timeout ~cost:100 (fun () ->
              if b.req = req && Option.is_some b.op then finish f b expired)

let check_select f =
  match f.select.op with
  | None -> ()
  | Some watch ->
      let ready =
        List.filter
          (fun id ->
            match Hashtbl.find_opt f.sockets id with
            | Some s -> f.readable s
            | None -> true)
          watch
      in
      if ready <> [] then finish f f.select (Msg.Ok_ready ready)

let select f req watch ~timeout =
  if Option.is_some f.select.op then reply f req (Msg.Err "select already pending")
  else
    block f f.select req watch ~timeout ~expired:(Msg.Ok_ready []) (fun () ->
        check_select f)

let reset f =
  f.select.op <- None;
  f.select.cancel <- ignore;
  Hashtbl.reset f.sockets

(* {1 IP half} *)

(* An in-flight packet: what we need to resubmit it after an IP crash. *)
type packet = {
  chain : Rich_ptr.chain;
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
  tso : bool;
}

type ip = {
  comp : Component.t;
  iproc : Proc.t;
  registry : Registry.t;
  pool : Pool.t;
  proto : Ipv4.protocol;
  restart_cost : Newt_sim.Time.cycles;
  db : packet Component.Db.t;
  mutable to_ip : Msg.t Sim_chan.t option;
  mutable ip_up : bool;
  mutable held : packet list;
  requeue : packet Newt_channels.Request_db.abort;
      (* Every packet's abort action: IP crashed, so hold the packet
         for resubmission under a new id once IP returns; the data stays
         allocated until the new id confirms. One closure per server,
         not one per packet. *)
}

let ip_peer = 1
let chunk_size = 2048

let ip comp ~registry ~proto ~slots ~restart_cost =
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots ~slot_size:chunk_size in
  Registry.register registry pool;
  let rec t =
    {
      comp;
      iproc = Component.proc comp;
      registry;
      pool;
      proto;
      restart_cost;
      db = Component.create_db comp;
      to_ip = None;
      ip_up = true;
      held = [];
      requeue = (fun _ p -> t.held <- p :: t.held);
    }
  in
  Component.register_pool comp pool;
  Component.on_crash comp (fun () -> t.held <- []);
  t

let free_chain t chain =
  List.iter (fun p -> try Pool.free t.pool p with Pool.Stale_pointer _ -> ()) chain

let submit t pkt =
  if not t.ip_up then t.held <- pkt :: t.held
  else
    match t.to_ip with
    | None -> free_chain t pkt.chain
    | Some chan ->
        let id =
          Component.Db.submit t.db ~peer:ip_peer ~payload:pkt ~abort:t.requeue
        in
        let sent =
          Proc.send t.iproc chan
            (Msg.Tx_ip
               { id; chain = pkt.chain; src = pkt.src; dst = pkt.dst; proto = t.proto; tso = pkt.tso })
        in
        if not sent then begin
          (* Queue full: drop. TCP's retransmission recovers; UDP is
             best effort. *)
          ignore (Component.Db.complete t.db id);
          free_chain t pkt.chain
        end

let transmit t ~src ~dst ~tso hdr payload ~off =
  (* Chunks of at most a slot (large TSO segments span several), in
     reverse; on exhaustion the ones already taken are freed. *)
  let slot = Pool.slot_size t.pool in
  let rec chunks b off acc =
    if off >= Bytes.length b then acc
    else
      let len = min slot (Bytes.length b - off) in
      match Pool.alloc t.pool ~len with
      | exception (Pool.Pool_exhausted as e) ->
          free_chain t acc;
          raise e
      | ptr ->
          Pool.write t.pool ptr ~src:b ~src_off:off;
          chunks b (off + len) (ptr :: acc)
  in
  match chunks payload off (chunks hdr 0 []) with
  | exception Pool.Pool_exhausted -> false
  | rev ->
      submit t { chain = List.rev rev; src; dst; tso };
      true

let read t buf =
  match Registry.read t.registry buf with
  | b -> Some b
  | exception (Registry.Unknown_pool _ | Pool.Stale_pointer _) -> None

let handler t ~call ~rx msg =
  match msg with
  | Msg.Sock_req { id; sock; call = c } -> call id sock c
  | Msg.Tx_ip_confirm { id; ok = _ } -> (
      ( 100,
        fun () ->
          match Component.Db.complete t.db id with
          | Some pkt -> free_chain t pkt.chain
          | None -> Stats.incr (Proc.stats t.iproc) "stale_confirm" ))
  | Msg.Rx_deliver { buf; src; dst } ->
      let cost, k = rx buf ~src ~dst in
      ( cost,
        fun () ->
          k ();
          (* Return the buffer to IP. *)
          Option.iter
            (fun chan -> ignore (Proc.send t.iproc chan (Msg.Rx_done { buf })))
            t.to_ip )
  | Msg.Tx_ip _ | Msg.Filter_req _ | Msg.Filter_verdict _ | Msg.Drv_tx _
  | Msg.Drv_tx_confirm _ | Msg.Rx_frame _
  | Msg.Rx_done _ | Msg.Sock_reply _
  | Msg.Sock_event _ ->
      (0, fun () -> Stats.incr (Proc.stats t.iproc) "invalid_msg")

let connect_ip t ~to_ip ~from_ip handler =
  t.to_ip <- Some to_ip;
  Component.produce t.comp to_ip;
  Component.consume t.comp from_ip handler

let connect_sc t f ~from_sc ~to_sc handler =
  reply_to f to_sc;
  Component.produce t.comp to_sc;
  Component.consume t.comp from_sc handler

let on_ip_crash t =
  t.ip_up <- false;
  ignore (Component.Db.abort_peer t.db ~peer:ip_peer)

let on_ip_restart t =
  t.ip_up <- true;
  let pkts = List.rev t.held in
  t.held <- [];
  (* "It is much more important that we quickly retransmit (possibly)
     lost packets to avoid the error detection and congestion
     avoidance" (Section V-D): resubmit everything with new ids. *)
  Proc.exec t.iproc ~cost:t.restart_cost (fun () ->
      List.iter
        (fun pkt -> if Registry.chain_live t.registry pkt.chain then submit t pkt)
        pkts)
