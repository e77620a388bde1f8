module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Mq = Newt_nic.Mq_e1000
module Sim_chan = Newt_channels.Sim_chan
module Rich_ptr = Newt_channels.Rich_ptr

(* One IP replica's attachment: its channel, its RX-pool capability,
   and (learned from the first allocation) its pool id, which is how RX
   DMA writes are routed back to the owning replica's pool. *)
type replica = {
  mutable r_tx_to_ip : Msg.t Sim_chan.t option;
  mutable r_alloc : (unit -> Rich_ptr.t option) option;
  mutable r_write : (Rich_ptr.t -> Bytes.t -> unit) option;
  mutable r_pool_id : int;
}

let fresh_replica () =
  { r_tx_to_ip = None; r_alloc = None; r_write = None; r_pool_id = -1 }

type t = {
  comp : Component.t;
  proc : Proc.t;
  nic : Mq.t;
  mutable replicas : replica array;  (* queue q belongs to replica q mod n *)
}

let costs t = Machine.costs (Component.machine t.comp)
let replica_count t = Array.length t.replicas
let replica_of_queue t queue = queue mod replica_count t

let ensure_replica t i =
  let n = Array.length t.replicas in
  if i >= n then
    t.replicas <-
      Array.init (i + 1) (fun j ->
          if j < n then t.replicas.(j) else fresh_replica ());
  t.replicas.(i)

(* Keep every RX ring full, each from the pool of the replica owning
   that queue. *)
let replenish_rx t =
  for queue = 0 to Mq.queues t.nic - 1 do
    let r = t.replicas.(replica_of_queue t queue) in
    match (r.r_alloc, r.r_write) with
    | Some alloc, Some _ ->
        let rec fill () =
          if Mq.rx_ring_free t.nic ~queue > 0 then
            match alloc () with
            | Some buf ->
                if r.r_pool_id < 0 then r.r_pool_id <- buf.Rich_ptr.pool;
                if Mq.post_rx t.nic ~queue { Mq.buf; rx_cookie = 0 } then fill ()
            | None -> ()
        in
        fill ()
    | _ -> ()
  done

(* RX DMA dispatch: a completed buffer is written through the write
   capability of whichever replica's pool it came from. *)
let rx_write_dispatch t buf frame =
  Array.iter
    (fun r ->
      if r.r_pool_id = buf.Rich_ptr.pool then
        match r.r_write with Some write -> write buf frame | None -> ())
    t.replicas

(* Split [ids] into confirm-batch messages: per-descriptor work is still
   charged, but the channel message is paid once per batch. *)
let send_confirms t chan ids =
  let batch = (costs t).Costs.confirm_batch in
  let rec go = function
    | [] -> ()
    | ids ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | id :: rest -> take (n - 1) (id :: acc) rest
        in
        let head, rest = take batch [] ids in
        ignore
          (Proc.send t.proc chan (Msg.Drv_tx_confirm { ids = head; ok = true }));
        go rest
  in
  go ids

let handle_irq t reason =
  let c = costs t in
  Proc.exec t.proc ~cost:c.Costs.trap_hot (fun () ->
      match reason with
      | Mq.Tx_done queue ->
          let rec reap acc =
            match Mq.reap_tx t.nic ~queue with
            | None -> List.rev acc
            | Some desc ->
                (* Same per-descriptor completion work as the
                   single-queue driver; only the messaging is batched. *)
                Proc.exec t.proc ~cost:(c.Costs.driver_packet_work / 2) (fun () -> ());
                reap (desc.Mq.tx_cookie :: acc)
          in
          let ids = reap [] in
          Proc.exec t.proc ~cost:0 (fun () ->
              match t.replicas.(replica_of_queue t queue).r_tx_to_ip with
              | Some chan -> send_confirms t chan ids
              | None -> ())
      | Mq.Rx_done queue ->
          let rec reap () =
            match Mq.reap_rx t.nic ~queue with
            | None -> ()
            | Some completion ->
                Proc.exec t.proc ~cost:c.Costs.driver_packet_work (fun () ->
                    match t.replicas.(replica_of_queue t queue).r_tx_to_ip with
                    | Some chan ->
                        let buf =
                          { completion.Mq.rx_buf with Rich_ptr.len = completion.Mq.len }
                        in
                        ignore
                          (Proc.send t.proc chan
                             (Msg.Rx_frame { buf; len = completion.Mq.len }))
                    | None -> ());
                reap ()
          in
          reap ();
          replenish_rx t
      | Mq.Link_change ->
          replenish_rx t;
          for queue = 0 to Mq.queues t.nic - 1 do
            Mq.doorbell_tx t.nic ~queue
          done)

let handle_msg t msg =
  let c = costs t in
  match msg with
  | Msg.Drv_tx { id; chain; csum_offload; tso; tso_mss; queue } ->
      ( c.Costs.driver_packet_work,
        fun () ->
          let queue = queue mod Mq.queues t.nic in
          let desc = { Mq.chain; csum_offload; tso; tso_mss; tx_cookie = id } in
          if Mq.post_tx t.nic ~queue desc then Mq.doorbell_tx t.nic ~queue
          else begin
            match t.replicas.(replica_of_queue t queue).r_tx_to_ip with
            | Some chan ->
                ignore
                  (Proc.send t.proc chan (Msg.Drv_tx_confirm { ids = [ id ]; ok = false }))
            | None -> ()
          end )
  | Msg.Tx_ip _ | Msg.Tx_ip_confirm _ | Msg.Filter_req _ | Msg.Filter_verdict _
  | Msg.Drv_tx_confirm _ | Msg.Rx_frame _
  | Msg.Rx_deliver _ | Msg.Rx_done _
  | Msg.Sock_req _ | Msg.Sock_reply _ | Msg.Sock_event _ ->
      (0, fun () -> Newt_sim.Stats.incr (Proc.stats t.proc) "invalid_msg")

let create comp ~nic () =
  let t =
    {
      comp;
      proc = Component.proc comp;
      nic;
      replicas = [| fresh_replica () |];
    }
  in
  Mq.set_irq_handler nic (fun reason -> handle_irq t reason);
  Mq.set_rx_writer nic (fun buf frame -> rx_write_dispatch t buf frame);
  Component.on_restart comp ~step:"reset-device" (fun ~fresh:_ ->
      Mq.reset t.nic);
  t

(* {2 Per-replica attachment} *)

let set_replicas t n =
  if n <= 0 then invalid_arg "Mq_drv_srv.set_replicas";
  ignore (ensure_replica t (n - 1))

let connect_ip_replica t ~replica ~rx_from_ip ~tx_to_ip =
  let r = ensure_replica t replica in
  r.r_tx_to_ip <- Some tx_to_ip;
  Component.produce t.comp tx_to_ip;
  Component.consume t.comp rx_from_ip (handle_msg t)

let grant_rx_pool_replica t ~replica ~alloc ~write =
  let r = ensure_replica t replica in
  r.r_alloc <- Some alloc;
  r.r_write <- Some write;
  r.r_pool_id <- -1;
  replenish_rx t

(* A crashed replica's queues hold descriptors into its dead pool. With
   one replica that is the whole device: fence all of it, and take the
   full link-bouncing reset on restart as the real adapter must
   (Section V-D). With several, fence and reprogram only the dead
   replica's queues; the others keep forwarding. *)
let on_ip_replica_crash t ~replica =
  let r = t.replicas.(replica) in
  r.r_alloc <- None;
  r.r_write <- None;
  r.r_pool_id <- -1;
  if replica_count t = 1 then Mq.mark_unsafe t.nic
  else
    for queue = 0 to Mq.queues t.nic - 1 do
      if replica_of_queue t queue = replica then Mq.mark_queue_unsafe t.nic ~queue
    done

let on_ip_replica_restart t ~replica =
  if replica_count t = 1 then Mq.reset t.nic
  else
    for queue = 0 to Mq.queues t.nic - 1 do
      if replica_of_queue t queue = replica then Mq.reset_queue t.nic ~queue
    done

let hooks t ~replica =
  {
    Ip_srv.drv_connect = connect_ip_replica t ~replica;
    drv_grant_rx_pool = grant_rx_pool_replica t ~replica;
    drv_on_ip_crash = (fun () -> on_ip_replica_crash t ~replica);
    drv_on_ip_restart = (fun () -> on_ip_replica_restart t ~replica);
  }
