module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Cpu = Newt_hw.Cpu
module Stats = Newt_sim.Stats
module Sim_chan = Newt_channels.Sim_chan

type app = { app_core : Cpu.t; app_pid : int }

type entry = {
  transport : [ `Tcp | `Udp ];
  shard : int;  (* which transport instance serves this socket *)
  mutable last_op : (int * Msg.sock_call) option;
  mutable waiter : (Msg.sock_result -> unit) option;
  mutable owner : app option;
}

type t = {
  comp : Component.t;
  proc : Proc.t;
  mutable to_tcp : Msg.t Sim_chan.t array;
  mutable to_udp : Msg.t Sim_chan.t array;
  sockets : (Msg.socket_id, entry) Hashtbl.t;
  reqs : (int, Msg.socket_id) Hashtbl.t;
  mutable next_sock : int;
  mutable next_req : int;
  mutable place : transport:[ `Tcp | `Udp ] -> int;
}

let comp t = t.comp
let proc t = t.proc
let costs t = Machine.costs (Component.machine t.comp)

let outstanding_calls t = Hashtbl.length t.reqs
let socket_count t = Hashtbl.length t.sockets

(* Socket-id order, so what a restart re-issues (and in which order)
   does not depend on the table's history. *)
let sockets_by_id t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun id entry acc -> (id, entry) :: acc) t.sockets [])

let chans_for t transport =
  match transport with `Tcp -> t.to_tcp | `Udp -> t.to_udp

let chan_for t entry =
  let chans = chans_for t entry.transport in
  let n = Array.length chans in
  if n = 0 then None else Some chans.(entry.shard mod n)

(* Deliver a result back to the blocked application: the kernel reply
   plus the app's return from its trap. *)
let deliver_to_app t entry result =
  match (entry.waiter, entry.owner) with
  | Some k, Some app ->
      entry.waiter <- None;
      Cpu.exec app.app_core ~proc:app.app_pid
        ~cost:(costs t).Costs.trap_hot
        (fun () -> k result)
  | Some k, None ->
      entry.waiter <- None;
      k result
  | None, _ -> ()

let forward t sock_id entry req_id call =
  match chan_for t entry with
  | Some chan ->
      entry.last_op <- Some (req_id, call);
      Hashtbl.replace t.reqs req_id sock_id;
      if not (Proc.send t.proc chan (Msg.Sock_req { id = req_id; sock = sock_id; call }))
      then begin
        Hashtbl.remove t.reqs req_id;
        (* The transport is down; the operation stays recorded as
           unfinished and will be re-issued on restart. *)
        ()
      end
  | None -> deliver_to_app t entry (Msg.Err "no transport")

(* The SYSCALL server's own work per call is minimal: "it merely peeks
   into the messages and passes them to the servers through the
   channels" — but it pays the kernel IPC receive for the application's
   trap. *)
let dispatch_cost t =
  let c = costs t in
  Costs.kipc_sendrec_cost c ~cold:false + c.Costs.channel_marshal
  + c.Costs.channel_enqueue

let submit t app ~sock:sock_id call k =
  (* The application traps; the kernel copies the message; the SYSCALL
     server is woken (possibly cross-core). *)
  let c = costs t in
  Cpu.exec app.app_core ~proc:app.app_pid
    ~cost:(Costs.kipc_sendrec_cost c ~cold:false)
    (fun () ->
      Proc.exec t.proc ~cost:(dispatch_cost t) (fun () ->
          match Hashtbl.find_opt t.sockets sock_id with
          | None -> k (Msg.Err "bad socket")
          | Some entry ->
              if entry.waiter <> None then k (Msg.Err "socket busy")
              else begin
                entry.waiter <- Some k;
                entry.owner <- Some app;
                let req_id = t.next_req in
                t.next_req <- req_id + 1;
                (* accept(): pre-allocate the new connection's socket id
                   and register it with the same transport. *)
                let call =
                  match call with
                  | Msg.Call_accept _ ->
                      let new_sock = t.next_sock in
                      t.next_sock <- new_sock + 1;
                      (* The accepted connection lives on the listener's
                         shard — the only instance that has its PCB. *)
                      Hashtbl.replace t.sockets new_sock
                        {
                          transport = entry.transport;
                          shard = entry.shard;
                          last_op = None;
                          waiter = None;
                          owner = None;
                        };
                      Msg.Call_accept { new_sock }
                  | other -> other
                in
                forward t sock_id entry req_id call
              end))

let socket t app ~transport k =
  let c = costs t in
  Cpu.exec app.app_core ~proc:app.app_pid
    ~cost:(Costs.kipc_sendrec_cost c ~cold:false)
    (fun () ->
      Proc.exec t.proc ~cost:(dispatch_cost t) (fun () ->
          let sock_id = t.next_sock in
          t.next_sock <- sock_id + 1;
          let entry =
            {
              transport;
              shard = t.place ~transport;
              last_op = None;
              waiter = None;
              owner = Some app;
            }
          in
          Hashtbl.replace t.sockets sock_id entry;
          entry.waiter <-
            Some
              (fun result ->
                match result with
                | Msg.Ok_socket id -> k id
                | _ -> k sock_id);
          let req_id = t.next_req in
          t.next_req <- req_id + 1;
          forward t sock_id entry req_id Msg.Call_socket))

let call = submit

let handle_msg t msg =
  let c = costs t in
  match msg with
  | Msg.Sock_reply { id; result } -> (
      ( c.Costs.channel_demux + (Costs.kipc_sendrec_cost c ~cold:false / 2),
        fun () ->
          match Hashtbl.find_opt t.reqs id with
          | None ->
              (* A stale reply from before a restart: ignore
                 (Section V-B). *)
              Stats.incr (Proc.stats t.proc) "stale_reply"
          | Some sock_id -> (
              Hashtbl.remove t.reqs id;
              match Hashtbl.find_opt t.sockets sock_id with
              | None -> ()
              | Some entry ->
                  let closed =
                    match entry.last_op with
                    | Some (_, Msg.Call_close) -> true
                    | Some _ | None -> false
                  in
                  entry.last_op <- None;
                  deliver_to_app t entry result;
                  if closed then Hashtbl.remove t.sockets sock_id) ))
  | Msg.Sock_event _ -> (100, fun () -> ())
  | Msg.Tx_ip _ | Msg.Tx_ip_confirm _ | Msg.Filter_req _ | Msg.Filter_verdict _
  | Msg.Drv_tx _ | Msg.Drv_tx_confirm _ | Msg.Drv_tx_confirm_batch _
  | Msg.Rx_frame _ | Msg.Rx_deliver _
  | Msg.Rx_done _ | Msg.Sock_req _ ->
      (0, fun () -> Stats.incr (Proc.stats t.proc) "invalid_msg")

let create comp () =
  let t =
    {
      comp;
      proc = Component.proc comp;
      to_tcp = [||];
      to_udp = [||];
      sockets = Hashtbl.create 64;
      reqs = Hashtbl.create 64;
      next_sock = 3;
      next_req = 1;
      place = (fun ~transport:_ -> 0);
    }
  in
  (* Outstanding calls get errors; the socket table is rebuilt lazily
     as applications retry (Section V-B: restarting the SYSCALL server
     is trivial). *)
  Component.on_crash comp (fun () ->
      List.iter
        (fun (_, entry) -> deliver_to_app t entry (Msg.Err "syscall server restarted"))
        (sockets_by_id t);
      Hashtbl.reset t.reqs);
  t

let connect_transport_sharded t ~transport ~pairs =
  (match transport with
  | `Tcp -> t.to_tcp <- Array.map fst pairs
  | `Udp -> t.to_udp <- Array.map fst pairs);
  Array.iter
    (fun (to_transport, from_transport) ->
      Component.produce t.comp to_transport;
      Component.consume t.comp from_transport (handle_msg t))
    pairs

let connect_transport t ~transport ~to_transport ~from_transport =
  connect_transport_sharded t ~transport ~pairs:[| (to_transport, from_transport) |]

let set_placement t f = t.place <- f

let on_transport_restart ?shard t ~transport =
  (* Re-issue every unfinished operation against the fresh instance
     (Section V-D). The request keeps its id: the old instance never
     answered it, and ids are unique per SYSCALL incarnation. When
     [shard] is given, only that instance restarted — sockets on the
     other shards never lost anything. *)
  Proc.exec t.proc ~cost:(dispatch_cost t) (fun () ->
      List.iter
        (fun (sock_id, entry) ->
          if
            entry.transport = transport
            && (match shard with None -> true | Some s -> entry.shard = s)
          then
            match entry.last_op with
            | Some (req_id, call) -> forward t sock_id entry req_id call
            | None -> ())
        (sockets_by_id t))
