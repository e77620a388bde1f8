module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Mq = Newt_nic.Mq_e1000
module Sim_chan = Newt_channels.Sim_chan
module Rich_ptr = Newt_channels.Rich_ptr

type t = {
  comp : Component.t;
  proc : Proc.t;
  nic : Mq.t;
  mutable tx_to_ip : Msg.t Sim_chan.t option;
  mutable rx_alloc : (unit -> Rich_ptr.t option) option;
  mutable rx_write : (Rich_ptr.t -> Bytes.t -> unit) option;
}

let costs t = Machine.costs (Component.machine t.comp)

(* Keep the RX ring full: hand every buffer we can allocate to the
   device. *)
let replenish_rx t =
  match (t.rx_alloc, t.rx_write) with
  | Some alloc, Some _ ->
      let rec fill () =
        if Mq.rx_ring_free t.nic ~queue:0 > 0 then
          match alloc () with
          | Some buf ->
              if Mq.post_rx t.nic ~queue:0 { Mq.buf; rx_cookie = 0 } then fill ()
          | None -> ()
      in
      fill ()
  | _ -> ()

let handle_irq t reason =
  (* The kernel turned the interrupt into a message; handling it costs a
     mode switch plus per-completion work charged below. *)
  let c = costs t in
  Proc.exec t.proc ~cost:c.Costs.trap_hot (fun () ->
      match reason with
      | Mq.Tx_done _ ->
          let rec reap () =
            match Mq.reap_tx t.nic ~queue:0 with
            | None -> ()
            | Some desc ->
                Proc.exec t.proc
                  ~cost:(c.Costs.driver_packet_work / 2)
                  (fun () ->
                    match t.tx_to_ip with
                    | Some chan ->
                        ignore
                          (Proc.send t.proc chan
                             (Msg.Drv_tx_confirm { ids = [ desc.Mq.tx_cookie ]; ok = true }))
                    | None -> ());
                reap ()
          in
          reap ()
      | Mq.Rx_done _ ->
          let rec reap () =
            match Mq.reap_rx t.nic ~queue:0 with
            | None -> ()
            | Some completion ->
                Proc.exec t.proc ~cost:c.Costs.driver_packet_work (fun () ->
                    match t.tx_to_ip with
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
          (* Link came back after a reset: re-arm and resume. *)
          replenish_rx t;
          Mq.doorbell_tx t.nic ~queue:0)

let handle_msg t msg =
  let c = costs t in
  match msg with
  | Msg.Drv_tx { id; chain; csum_offload; tso; tso_mss; queue = _ } ->
      ( c.Costs.driver_packet_work,
        fun () ->
          let desc =
            { Mq.chain; csum_offload; tso; tso_mss; tx_cookie = id }
          in
          if Mq.post_tx t.nic ~queue:0 desc then Mq.doorbell_tx t.nic ~queue:0
          else begin
            (* TX ring full: refuse, IP keeps the request pending and
               will resubmit (never block, Section IV-A). *)
            match t.tx_to_ip with
            | Some chan ->
                ignore
                  (Proc.send t.proc chan (Msg.Drv_tx_confirm { ids = [ id ]; ok = false }))
            | None -> ()
          end )
  | Msg.Tx_ip _ | Msg.Tx_ip_confirm _ | Msg.Filter_req _ | Msg.Filter_verdict _
  | Msg.Drv_tx_confirm _ | Msg.Rx_frame _
  | Msg.Rx_deliver _ | Msg.Rx_done _
  | Msg.Sock_req _ | Msg.Sock_reply _ | Msg.Sock_event _ ->
      (* Not ours: a buggy or malicious peer. Ignore (Section IV-A:
         "the receiving process must check whether a request makes
         sense ... and ignore invalid ones"). *)
      (0, fun () -> Newt_sim.Stats.incr (Proc.stats t.proc) "invalid_msg")

let create comp ~nic () =
  let t =
    {
      comp;
      proc = Component.proc comp;
      nic;
      tx_to_ip = None;
      rx_alloc = None;
      rx_write = None;
    }
  in
  Mq.set_irq_handler nic (fun reason -> handle_irq t reason);
  (* Fresh start after a crash: the device must be reset — "manually
     restarting the driver ... reset the device" (Section VI-B). *)
  Component.on_restart comp ~step:"reset-device" (fun ~fresh:_ ->
      Mq.reset t.nic);
  t

let connect_ip t ~rx_from_ip ~tx_to_ip =
  t.tx_to_ip <- Some tx_to_ip;
  Component.produce t.comp tx_to_ip;
  Component.consume t.comp rx_from_ip (handle_msg t)

let grant_rx_pool t ~alloc ~write =
  t.rx_alloc <- Some alloc;
  t.rx_write <- Some write;
  Mq.set_rx_writer t.nic (fun buf frame -> write buf frame);
  replenish_rx t

let on_ip_crash t =
  (* The device still holds shadow descriptors pointing into the dead
     pool: unsafe until reset. *)
  t.rx_alloc <- None;
  t.rx_write <- None;
  Mq.mark_unsafe t.nic

let on_ip_restart t =
  (* The Intel adapters have no knob to invalidate their shadow RX/TX
     descriptor copies, so the device must be reset — this is what
     causes the visible gap of Figure 4. *)
  Mq.reset t.nic

let hooks t =
  {
    Ip_srv.drv_connect =
      (fun ~rx_from_ip ~tx_to_ip -> connect_ip t ~rx_from_ip ~tx_to_ip);
    drv_grant_rx_pool = (fun ~alloc ~write -> grant_rx_pool t ~alloc ~write);
    drv_on_ip_crash = (fun () -> on_ip_crash t);
    drv_on_ip_restart = (fun () -> on_ip_restart t);
  }
