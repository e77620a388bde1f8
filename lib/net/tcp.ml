type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Listen -> "LISTEN"
    | Syn_sent -> "SYN_SENT"
    | Syn_received -> "SYN_RCVD"
    | Established -> "ESTABLISHED"
    | Fin_wait_1 -> "FIN_WAIT_1"
    | Fin_wait_2 -> "FIN_WAIT_2"
    | Close_wait -> "CLOSE_WAIT"
    | Closing -> "CLOSING"
    | Last_ack -> "LAST_ACK"
    | Time_wait -> "TIME_WAIT"
    | Closed -> "CLOSED")

(* Stable integer codes for crossing the [Newt_channels.Hook] boundary
   (that library sits below us and cannot name [state]). *)
let state_code = function
  | Listen -> 0
  | Syn_sent -> 1
  | Syn_received -> 2
  | Established -> 3
  | Fin_wait_1 -> 4
  | Fin_wait_2 -> 5
  | Close_wait -> 6
  | Closing -> 7
  | Last_ack -> 8
  | Time_wait -> 9
  | Closed -> 10

let state_of_code = function
  | 0 -> Listen
  | 1 -> Syn_sent
  | 2 -> Syn_received
  | 3 -> Established
  | 4 -> Fin_wait_1
  | 5 -> Fin_wait_2
  | 6 -> Close_wait
  | 7 -> Closing
  | 8 -> Last_ack
  | 9 -> Time_wait
  | 10 -> Closed
  | n -> invalid_arg (Printf.sprintf "Tcp.state_of_code: %d" n)

type event =
  | Connected
  | Accepted
  | Readable
  | Writable
  | Closed_normally
  | Reset

type env = {
  now : unit -> int;
  set_timer : int -> (unit -> unit) -> unit -> unit;
  emit : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Tcp_wire.header -> payload:Bytes.t -> unit;
  random : int -> int;
}

type config = {
  mss : int;
  tso_segment : int;
  snd_buf : int;
  rcv_buf : int;
  rto_init : int;
  rto_min : int;
  rto_max : int;
  delack_timeout : int;
  msl : int;
  max_retries : int;
  use_wscale : bool;
}

let cps = Newt_sim.Time.cycles_per_second

let default_config =
  {
    mss = 1460;
    tso_segment = 0;
    snd_buf = 256 * 1024;
    rcv_buf = 256 * 1024;
    rto_init = cps (* 1 s *);
    rto_min = cps / 5 (* 200 ms *);
    rto_max = 60 * cps;
    delack_timeout = cps / 25 (* 40 ms *);
    msl = cps (* 1 s; TIME_WAIT = 2 s *);
    max_retries = 10;
    use_wscale = true;
  }

type stats = {
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable retransmits : int;
  mutable dup_segs_in : int;
  mutable rsts_out : int;
  mutable rsts_in : int;
}

type conn_key = Addr.Ipv4.t * int * Addr.Ipv4.t * int

(* Deliberate conformance bugs for the checker's negative controls
   (the paper's §V-B class: answering traffic from the wrong protocol
   state). [Stale_established] is planted by [resurrect] after a
   crash; [Ack_from_closed] replaces the RST a closed port owes an
   unknown segment with a bare ACK. *)
type sabotage = Stale_established | Ack_from_closed

type pcb = {
  t : t;
  local_ip : Addr.Ipv4.t;
  local_port : int;
  remote_ip : Addr.Ipv4.t;
  remote_port : int;
  mutable state : state;
  mutable handler : event -> unit;
  (* Send side. *)
  mutable iss : Seq32.t;
  mutable snd_una : Seq32.t;
  mutable snd_nxt : Seq32.t;
  mutable snd_max : Seq32.t;
      (* Highest sequence ever sent. After a go-back-N RTO resets
         [snd_nxt], ACKs between the two remain valid. *)
  mutable snd_wnd : int;
  mutable snd_wl1 : Seq32.t;
  mutable snd_wl2 : Seq32.t;
  sndbuf : Bytebuf.t;
  mutable fin_sent : bool;
  mutable fin_seq : Seq32.t;
  mutable close_pending : bool;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dupacks : int;
  mutable in_fast_recovery : bool;
  mutable srtt : int;  (* scaled by 8, 0 = no sample yet *)
  mutable rttvar : int;  (* scaled by 4 *)
  mutable rto : int;
  mutable rtt_probe : (Seq32.t * int) option;  (* seq being timed, send time *)
  mutable retries : int;
  mutable rtx_cancel : (unit -> unit) option;
  mutable persist_cancel : (unit -> unit) option;
  mutable persist_backoff : int;  (* multiplier on the persist interval *)
  (* Receive side. *)
  mutable irs : Seq32.t;
  mutable rcv_nxt : Seq32.t;
  rcvbuf : Bytebuf.t;
  mutable ooo : (Seq32.t * Bytes.t) list;  (* sorted by seq *)
  mutable rcv_fin : bool;
  mutable eof_delivered : bool;
  mutable delack_pending : int;
  mutable delack_cancel : (unit -> unit) option;
  mutable timewait_cancel : (unit -> unit) option;
  mutable last_advertised_wnd : int;
  (* Negotiated parameters. *)
  mutable mss : int;
  mutable snd_wscale : int;  (* shift to apply to peer's window field *)
  mutable rcv_wscale : int;  (* shift peer applies; we advertise >> this *)
}

and listener = { on_accept : pcb -> unit }

and t = {
  env : env;
  config : config;
  conns : (conn_key, pcb) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  stats : stats;
  mutable next_ephemeral : int;
  mutable sabotage : sabotage option;
}

let create ?(config = default_config) env =
  {
    env;
    config;
    conns = Hashtbl.create 64;
    listeners = Hashtbl.create 8;
    stats =
      {
        segs_out = 0;
        segs_in = 0;
        bytes_out = 0;
        bytes_in = 0;
        retransmits = 0;
        dup_segs_in = 0;
        rsts_out = 0;
        rsts_in = 0;
      };
    next_ephemeral = 49152;
    sabotage = None;
  }

let stats t = t.stats
let state pcb = pcb.state
let set_handler pcb f = pcb.handler <- f
let local_addr pcb = (pcb.local_ip, pcb.local_port)
let remote_addr pcb = (pcb.remote_ip, pcb.remote_port)
let effective_mss pcb = pcb.mss
let cwnd pcb = pcb.cwnd
let srtt pcb = if pcb.srtt = 0 then None else Some (pcb.srtt / 8)

let key_of pcb : conn_key =
  (pcb.local_ip, pcb.local_port, pcb.remote_ip, pcb.remote_port)

(* {2 Conformance-event mirroring}

   Every state transition and every segment crossing the engine is
   mirrored to the [Hook] TCP family so the FSM conformance checker
   ([Newt_verify.Tcpfsm]) can replay them against its rule table. All
   emissions are guarded by [Hook.tcp_enabled] so an unarmed run pays
   one branch per site. Events are local-oriented: [lip]/[lport] is
   always this engine's end. *)

module Hook = Newt_channels.Hook

let hook_flags (f : Tcp_wire.flags) ~payload_len =
  {
    Hook.syn = f.Tcp_wire.syn;
    ack = f.Tcp_wire.ack;
    fin = f.Tcp_wire.fin;
    rst = f.Tcp_wire.rst;
    data = payload_len > 0;
  }

(* [hook_transition] reports [from_] explicitly so creation sites can
   report the implicit Closed origin of a fresh PCB. Emitted before
   the state field is assigned. *)
let hook_transition pcb ~from_ ~to_ cause =
  if from_ <> to_ && Hook.tcp_enabled () then
    Hook.tcp_emit
      (Hook.T_state_change
         {
           lip = Addr.Ipv4.to_int32 pcb.local_ip;
           lport = pcb.local_port;
           rip = Addr.Ipv4.to_int32 pcb.remote_ip;
           rport = pcb.remote_port;
           from_s = state_code from_;
           to_s = state_code to_;
           cause;
         })

let set_state pcb cause to_ =
  hook_transition pcb ~from_:pcb.state ~to_ cause;
  pcb.state <- to_

let hook_seg ~tx ~lip ~lport ~rip ~rport flags =
  if Hook.tcp_enabled () then begin
    let lip = Addr.Ipv4.to_int32 lip and rip = Addr.Ipv4.to_int32 rip in
    Hook.tcp_emit
      (if tx then Hook.T_seg_tx { lip; lport; rip; rport; flags }
       else Hook.T_seg_rx { lip; lport; rip; rport; flags })
  end

let wscale_of_buf buf_size =
  let rec go shift = if buf_size lsr shift <= 0xffff || shift >= 14 then shift else go (shift + 1) in
  go 0

let cancel_timer c =
  match c with
  | Some cancel -> cancel ()
  | None -> ()

let new_pcb t ~local_ip ~local_port ~remote_ip ~remote_port ~state =
  {
    t;
    local_ip;
    local_port;
    remote_ip;
    remote_port;
    state;
    handler = (fun _ -> ());
    iss = 0;
    snd_una = 0;
    snd_nxt = 0;
    snd_max = 0;
    snd_wnd = 0;
    snd_wl1 = 0;
    snd_wl2 = 0;
    sndbuf = Bytebuf.create ~capacity:t.config.snd_buf;
    fin_sent = false;
    fin_seq = 0;
    close_pending = false;
    cwnd = 2 * t.config.mss;
    ssthresh = t.config.snd_buf;
    dupacks = 0;
    in_fast_recovery = false;
    srtt = 0;
    rttvar = 0;
    rto = t.config.rto_init;
    rtt_probe = None;
    retries = 0;
    rtx_cancel = None;
    persist_cancel = None;
    persist_backoff = 1;
    irs = 0;
    rcv_nxt = 0;
    rcvbuf = Bytebuf.create ~capacity:t.config.rcv_buf;
    ooo = [];
    rcv_fin = false;
    eof_delivered = false;
    delack_pending = 0;
    delack_cancel = None;
    timewait_cancel = None;
    last_advertised_wnd = 0;
    mss = t.config.mss;
    snd_wscale = 0;
    rcv_wscale = 0;
  }

(* {2 Emission} *)

let advertised_window pcb =
  let free = Bytebuf.available pcb.rcvbuf in
  min 0xffff (free lsr pcb.rcv_wscale)

let emit_seg pcb ?(payload = Bytes.empty) ?(push = false) ~seq (flags : Tcp_wire.flags) =
  let t = pcb.t in
  (* The window field of a SYN segment is never scaled (RFC 7323). *)
  let win =
    if flags.Tcp_wire.syn then min 0xffff (Bytebuf.available pcb.rcvbuf)
    else advertised_window pcb
  in
  pcb.last_advertised_wnd <- win;
  let hdr =
    {
      Tcp_wire.src_port = pcb.local_port;
      dst_port = pcb.remote_port;
      seq;
      ack = (if flags.Tcp_wire.ack then pcb.rcv_nxt else 0);
      flags = { flags with Tcp_wire.psh = push };
      window = win;
      mss = (if flags.Tcp_wire.syn then Some t.config.mss else None);
      wscale =
        (if flags.Tcp_wire.syn && t.config.use_wscale then
           Some (wscale_of_buf t.config.rcv_buf)
         else None);
    }
  in
  t.stats.segs_out <- t.stats.segs_out + 1;
  t.stats.bytes_out <- t.stats.bytes_out + Bytes.length payload;
  hook_seg ~tx:true ~lip:pcb.local_ip ~lport:pcb.local_port ~rip:pcb.remote_ip
    ~rport:pcb.remote_port
    (hook_flags hdr.Tcp_wire.flags ~payload_len:(Bytes.length payload));
  t.env.emit ~src:pcb.local_ip ~dst:pcb.remote_ip hdr ~payload

let emit_rst t ~src ~dst ~src_port ~dst_port ~seq ~ack ~with_ack =
  let flags = { Tcp_wire.flag_rst with Tcp_wire.ack = with_ack } in
  let hdr =
    {
      Tcp_wire.src_port;
      dst_port;
      seq;
      ack;
      flags;
      window = 0;
      mss = None;
      wscale = None;
    }
  in
  t.stats.rsts_out <- t.stats.rsts_out + 1;
  t.stats.segs_out <- t.stats.segs_out + 1;
  hook_seg ~tx:true ~lip:src ~lport:src_port ~rip:dst ~rport:dst_port
    (hook_flags flags ~payload_len:0);
  t.env.emit ~src ~dst hdr ~payload:Bytes.empty

let ack_now pcb =
  cancel_timer pcb.delack_cancel;
  pcb.delack_cancel <- None;
  pcb.delack_pending <- 0;
  emit_seg pcb ~seq:pcb.snd_nxt Tcp_wire.flag_ack

let ack_delayed pcb =
  pcb.delack_pending <- pcb.delack_pending + 1;
  if pcb.delack_pending >= 2 then ack_now pcb
  else if pcb.delack_cancel = None then
    pcb.delack_cancel <-
      Some (pcb.t.env.set_timer pcb.t.config.delack_timeout (fun () ->
                pcb.delack_cancel <- None;
                if pcb.delack_pending > 0 then ack_now pcb))

(* {2 Timers and retransmission} *)

let stop_rtx pcb =
  cancel_timer pcb.rtx_cancel;
  pcb.rtx_cancel <- None

let stop_persist pcb =
  cancel_timer pcb.persist_cancel;
  pcb.persist_cancel <- None;
  pcb.persist_backoff <- 1

let flight pcb = Seq32.diff pcb.snd_nxt pcb.snd_una

let teardown ~cause pcb =
  stop_rtx pcb;
  stop_persist pcb;
  cancel_timer pcb.delack_cancel;
  pcb.delack_cancel <- None;
  cancel_timer pcb.timewait_cancel;
  pcb.timewait_cancel <- None;
  Hashtbl.remove pcb.t.conns (key_of pcb);
  set_state pcb cause Closed

let rec arm_rtx pcb =
  stop_rtx pcb;
  pcb.rtx_cancel <- Some (pcb.t.env.set_timer pcb.rto (fun () -> on_rto pcb))

and on_rto pcb =
  pcb.rtx_cancel <- None;
  pcb.retries <- pcb.retries + 1;
  if pcb.retries > pcb.t.config.max_retries then begin
    let h = pcb.handler in
    teardown ~cause:Hook.T_timer pcb;
    h Reset
  end
  else begin
    (* Karn: back off and stop timing. *)
    pcb.rto <- min (pcb.rto * 2) pcb.t.config.rto_max;
    pcb.rtt_probe <- None;
    (match pcb.state with
    | Syn_sent ->
        emit_seg pcb ~seq:pcb.iss Tcp_wire.flag_syn;
        pcb.t.stats.retransmits <- pcb.t.stats.retransmits + 1
    | Syn_received ->
        emit_seg pcb ~seq:pcb.iss Tcp_wire.flag_syn_ack;
        pcb.t.stats.retransmits <- pcb.t.stats.retransmits + 1
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
        (* Multiplicative decrease, go-back-N from snd_una. *)
        let fl = flight pcb in
        if fl > 0 then begin
          pcb.ssthresh <- max (fl / 2) (2 * pcb.mss);
          pcb.cwnd <- pcb.mss;
          pcb.in_fast_recovery <- false;
          pcb.dupacks <- 0;
          pcb.snd_nxt <- pcb.snd_una;
          retransmit_front pcb
        end
    | Listen | Time_wait | Closed -> ());
    (match pcb.state with
    | Syn_sent | Syn_received | Established | Fin_wait_1 | Close_wait | Closing
    | Last_ack ->
        arm_rtx pcb
    | Listen | Fin_wait_2 | Time_wait | Closed -> ())
  end

and retransmit_front pcb =
  (* Resend one segment starting at snd_una. The send buffer's front is
     aligned with snd_una, so the bytes are still there. *)
  let data_left = Bytebuf.length pcb.sndbuf in
  let seg = min pcb.mss data_left in
  if seg > 0 then begin
    let payload = Bytebuf.peek pcb.sndbuf ~off:0 ~len:seg in
    pcb.t.stats.retransmits <- pcb.t.stats.retransmits + 1;
    emit_seg pcb ~seq:pcb.snd_una ~payload ~push:true Tcp_wire.flag_ack;
    pcb.snd_nxt <- Seq32.max pcb.snd_nxt (Seq32.add pcb.snd_una seg)
  end
  else if pcb.fin_sent then begin
    pcb.t.stats.retransmits <- pcb.t.stats.retransmits + 1;
    emit_seg pcb ~seq:pcb.fin_seq Tcp_wire.flag_fin_ack;
    pcb.snd_nxt <- Seq32.max pcb.snd_nxt (Seq32.add pcb.fin_seq 1)
  end

(* {2 Output engine} *)

let max_seg pcb =
  if pcb.t.config.tso_segment > 0 then max pcb.mss pcb.t.config.tso_segment
  else pcb.mss

let rec output pcb =
  match pcb.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> output_data pcb
  | Listen | Syn_sent | Syn_received | Fin_wait_2 | Time_wait | Closed -> ()

and output_data pcb =
  let fl = flight pcb in
  (* The FIN byte, when in flight, occupies sequence space but no send
     buffer space. *)
  let fin_in_flight = pcb.fin_sent && Seq32.gt pcb.snd_nxt pcb.fin_seq in
  let sent_data = if fin_in_flight then fl - 1 else fl in
  let unsent = Bytebuf.length pcb.sndbuf - sent_data in
  let window = min pcb.snd_wnd pcb.cwnd in
  let usable = window - fl in
  let seg_limit = max_seg pcb in
  (* Zero-window: the peer closed its window while we still have
     data. Probe periodically (RFC 1122 persist timer) so a lost
     window update cannot deadlock the connection. *)
  if unsent > 0 && pcb.snd_wnd = 0 && fl = 0 then arm_persist pcb
  else if pcb.snd_wnd > 0 then stop_persist pcb;
  if unsent > 0 && (not fin_in_flight) && usable > 0 then begin
    let len = min (min unsent usable) seg_limit in
    (* A short segment is either window-limited (silly-window
       avoidance holds it) or the buffer's tail (Nagle, RFC 896, holds
       it while data is in flight, as lwIP's [tcp_do_output_nagle]
       does). The tail still goes at once when no later write can fill
       it: the connection is closing, or the send buffer is full. With
       nothing in flight any short segment goes, so a shrunken window
       cannot deadlock the transfer. *)
    let full = len >= min pcb.mss seg_limit in
    let tail = len = unsent in
    if full || fl = 0 || (tail && (pcb.close_pending || Bytebuf.available pcb.sndbuf = 0))
    then begin
      let payload = Bytebuf.peek pcb.sndbuf ~off:sent_data ~len in
      (if pcb.rtt_probe = None then
         pcb.rtt_probe <- Some (pcb.snd_nxt, pcb.t.env.now ()));
      emit_seg pcb ~seq:pcb.snd_nxt ~payload ~push:tail Tcp_wire.flag_ack;
      pcb.delack_pending <- 0;
      pcb.snd_nxt <- Seq32.add pcb.snd_nxt len;
      pcb.snd_max <- Seq32.max pcb.snd_max pcb.snd_nxt;
      if pcb.rtx_cancel = None then arm_rtx pcb;
      output_data pcb
    end
  end
  else if unsent = 0 then begin
    if pcb.close_pending && not pcb.fin_sent then send_fin pcb
    else if pcb.fin_sent && not fin_in_flight then begin
      (* The data behind a go-back-N has drained again: put the FIN
         back in flight. *)
      emit_seg pcb ~seq:pcb.fin_seq Tcp_wire.flag_fin_ack;
      pcb.snd_nxt <- Seq32.max pcb.snd_nxt (Seq32.add pcb.fin_seq 1);
      if pcb.rtx_cancel = None then arm_rtx pcb
    end
  end

and arm_persist pcb =
  if pcb.persist_cancel = None then begin
    let interval =
      min (pcb.rto * pcb.persist_backoff) pcb.t.config.rto_max
    in
    pcb.persist_cancel <-
      Some
        (pcb.t.env.set_timer interval (fun () ->
             pcb.persist_cancel <- None;
             if pcb.snd_wnd = 0 && Bytebuf.length pcb.sndbuf > flight pcb then begin
               (* One byte beyond the window, without advancing snd_nxt:
                  pure ACK solicitation. *)
               let probe = Bytebuf.peek pcb.sndbuf ~off:(flight pcb) ~len:1 in
               emit_seg pcb ~seq:pcb.snd_nxt ~payload:probe Tcp_wire.flag_ack;
               pcb.persist_backoff <- min (pcb.persist_backoff * 2) 64;
               arm_persist pcb
             end))
  end

and send_fin pcb =
  if not pcb.fin_sent then begin
    pcb.fin_sent <- true;
    pcb.fin_seq <- pcb.snd_nxt;
    emit_seg pcb ~seq:pcb.snd_nxt Tcp_wire.flag_fin_ack;
    pcb.snd_nxt <- Seq32.add pcb.snd_nxt 1;
    pcb.snd_max <- Seq32.max pcb.snd_max pcb.snd_nxt;
    let tx_fin =
      Hook.T_tx { Hook.syn = false; ack = true; fin = true; rst = false; data = false }
    in
    (match pcb.state with
    | Established -> set_state pcb tx_fin Fin_wait_1
    | Close_wait -> set_state pcb tx_fin Last_ack
    | Syn_sent | Syn_received | Listen | Fin_wait_1 | Fin_wait_2 | Closing
    | Last_ack | Time_wait | Closed ->
        ());
    if pcb.rtx_cancel = None then arm_rtx pcb
  end

(* {2 The API: opening, closing, data} *)

let alloc_ephemeral t ~local_ip ~remote_ip ~remote_port =
  let rec go attempts =
    if attempts > 16384 then failwith "Tcp: out of ephemeral ports";
    let port = t.next_ephemeral in
    t.next_ephemeral <- (if port >= 65535 then 49152 else port + 1);
    if Hashtbl.mem t.conns (local_ip, port, remote_ip, remote_port) then go (attempts + 1)
    else port
  in
  go 0

let port_in_use t ~local_ip ~port ~remote_ip ~remote_port =
  Hashtbl.mem t.conns (local_ip, port, remote_ip, remote_port)

let connect t ~src ~dst ~dst_port ?src_port () =
  let local_port =
    match src_port with
    | Some p -> p
    | None -> alloc_ephemeral t ~local_ip:src ~remote_ip:dst ~remote_port:dst_port
  in
  let pcb =
    new_pcb t ~local_ip:src ~local_port ~remote_ip:dst ~remote_port:dst_port
      ~state:Syn_sent
  in
  pcb.iss <- t.env.random 0x7fffffff;
  pcb.snd_una <- pcb.iss;
  pcb.snd_nxt <- Seq32.add pcb.iss 1;
  pcb.snd_max <- pcb.snd_nxt;
  Hashtbl.replace t.conns (key_of pcb) pcb;
  hook_transition pcb ~from_:Closed ~to_:Syn_sent Hook.T_api;
  emit_seg pcb ~seq:pcb.iss Tcp_wire.flag_syn;
  arm_rtx pcb;
  pcb

let listen t ~port ~on_accept =
  if Hashtbl.mem t.listeners port then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d already bound" port);
  Hashtbl.replace t.listeners port { on_accept }

let unlisten t ~port = Hashtbl.remove t.listeners port

let close pcb =
  match pcb.state with
  | Established | Close_wait ->
      pcb.close_pending <- true;
      output pcb
  | Syn_sent | Syn_received -> teardown ~cause:Hook.T_api pcb
  | Listen | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed -> ()

let abort pcb =
  if pcb.state <> Closed then begin
    (match pcb.state with
    | Syn_sent | Closed | Listen -> ()
    | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack | Time_wait ->
        emit_rst pcb.t ~src:pcb.local_ip ~dst:pcb.remote_ip ~src_port:pcb.local_port
          ~dst_port:pcb.remote_port ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~with_ack:true);
    teardown ~cause:Hook.T_api pcb
  end

let send pcb data ~off ~len =
  match pcb.state with
  | Established | Close_wait ->
      if pcb.close_pending then 0
      else begin
        let n = Bytebuf.push pcb.sndbuf data ~off ~len in
        if n > 0 then output pcb;
        n
      end
  | Listen | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack
  | Time_wait | Closed ->
      0

let send_space pcb =
  match pcb.state with
  | Established | Close_wait when not pcb.close_pending -> Bytebuf.available pcb.sndbuf
  | Listen | Syn_sent | Syn_received | Established | Fin_wait_1 | Fin_wait_2
  | Close_wait | Closing | Last_ack | Time_wait | Closed ->
      0

let recv_available pcb = Bytebuf.length pcb.rcvbuf

let recv pcb ~max =
  let was_closed = pcb.last_advertised_wnd * (1 lsl pcb.rcv_wscale) < pcb.mss in
  let out = Bytebuf.pop pcb.rcvbuf ~max in
  (* Reopen a window the peer believes is (nearly) closed. *)
  let now_open = Bytebuf.available pcb.rcvbuf >= 2 * pcb.mss in
  (match pcb.state with
  | Established | Fin_wait_1 | Fin_wait_2 ->
      if was_closed && now_open && Bytes.length out > 0 then ack_now pcb
  | Listen | Syn_sent | Syn_received | Close_wait | Closing | Last_ack | Time_wait
  | Closed ->
      ());
  out

let recv_eof pcb = pcb.rcv_fin && Bytebuf.is_empty pcb.rcvbuf

(* {2 ACK processing} *)

let update_rtt pcb =
  match pcb.rtt_probe with
  | None -> ()
  | Some (seq, sent_at) ->
      if Seq32.gt pcb.snd_una seq then begin
        pcb.rtt_probe <- None;
        let m = pcb.t.env.now () - sent_at in
        if pcb.srtt = 0 then begin
          pcb.srtt <- m * 8;
          pcb.rttvar <- m * 2
        end
        else begin
          let err = m - (pcb.srtt / 8) in
          pcb.srtt <- pcb.srtt + err;
          pcb.rttvar <- pcb.rttvar + (abs err - (pcb.rttvar / 4))
        end;
        let rto = (pcb.srtt / 8) + max (pcb.rttvar) (pcb.t.config.rto_min / 4) in
        pcb.rto <- min (max rto pcb.t.config.rto_min) pcb.t.config.rto_max
      end

let grow_cwnd pcb acked_bytes =
  if pcb.cwnd < pcb.ssthresh then
    (* Slow start with byte counting. *)
    pcb.cwnd <- min (pcb.cwnd + acked_bytes) (pcb.t.config.snd_buf)
  else
    (* Congestion avoidance: roughly one MSS per RTT. *)
    pcb.cwnd <-
      min
        (pcb.cwnd + max 1 (pcb.mss * acked_bytes / pcb.cwnd))
        pcb.t.config.snd_buf

let fast_retransmit pcb =
  let fl = flight pcb in
  pcb.ssthresh <- max (fl / 2) (2 * pcb.mss);
  pcb.in_fast_recovery <- true;
  pcb.cwnd <- pcb.ssthresh + (3 * pcb.mss);
  let data_left = Bytebuf.length pcb.sndbuf in
  let seg = min pcb.mss data_left in
  if seg > 0 then begin
    let payload = Bytebuf.peek pcb.sndbuf ~off:0 ~len:seg in
    pcb.t.stats.retransmits <- pcb.t.stats.retransmits + 1;
    emit_seg pcb ~seq:pcb.snd_una ~payload ~push:true Tcp_wire.flag_ack
  end

let process_ack pcb (hdr : Tcp_wire.header) ~payload_len =
  if Seq32.gt hdr.Tcp_wire.ack pcb.snd_max then
    (* Acknowledging data we never sent: resynchronize. *)
    ack_now pcb
  else if Seq32.le hdr.Tcp_wire.ack pcb.snd_una then begin
    (* Duplicate ACK detection per RFC 5681. *)
    if
      hdr.Tcp_wire.ack = pcb.snd_una
      && payload_len = 0
      && flight pcb > 0
      && (not hdr.Tcp_wire.flags.Tcp_wire.syn)
      && not hdr.Tcp_wire.flags.Tcp_wire.fin
    then begin
      pcb.dupacks <- pcb.dupacks + 1;
      if pcb.dupacks = 3 then fast_retransmit pcb
      else if pcb.dupacks > 3 && pcb.in_fast_recovery then begin
        pcb.cwnd <- pcb.cwnd + pcb.mss;
        output pcb
      end
    end
  end
  else begin
    let acked = Seq32.diff hdr.Tcp_wire.ack pcb.snd_una in
    let fin_acked = pcb.fin_sent && Seq32.ge hdr.Tcp_wire.ack (Seq32.add pcb.fin_seq 1) in
    let data_acked = if fin_acked then acked - 1 else acked in
    let data_acked = min data_acked (Bytebuf.length pcb.sndbuf) in
    if data_acked > 0 then Bytebuf.drop pcb.sndbuf data_acked;
    pcb.snd_una <- hdr.Tcp_wire.ack;
    (* After a go-back-N reset, a late ACK may land beyond snd_nxt. *)
    pcb.snd_nxt <- Seq32.max pcb.snd_nxt hdr.Tcp_wire.ack;
    pcb.retries <- 0;
    if pcb.in_fast_recovery then begin
      pcb.cwnd <- pcb.ssthresh;
      pcb.in_fast_recovery <- false
    end
    else grow_cwnd pcb data_acked;
    pcb.dupacks <- 0;
    update_rtt pcb;
    if flight pcb = 0 then stop_rtx pcb else arm_rtx pcb;
    if data_acked > 0 then pcb.handler Writable
  end

let update_snd_wnd pcb (hdr : Tcp_wire.header) =
  let seg_seq = hdr.Tcp_wire.seq and seg_ack = hdr.Tcp_wire.ack in
  if
    Seq32.lt pcb.snd_wl1 seg_seq
    || (pcb.snd_wl1 = seg_seq && Seq32.le pcb.snd_wl2 seg_ack)
  then begin
    pcb.snd_wnd <- hdr.Tcp_wire.window lsl pcb.snd_wscale;
    pcb.snd_wl1 <- seg_seq;
    pcb.snd_wl2 <- seg_ack
  end

(* {2 Receive-side reassembly} *)

let insert_ooo pcb seq payload ~off ~len =
  (* Keep a bounded, sorted out-of-order list; overlaps are resolved by
     preferring already-stored segments (peer retransmits will fill).
     The payload window belongs to the caller, so a stashed segment
     takes its own copy. *)
  if List.length pcb.ooo < 64 && len > 0 then begin
    let entry = (seq, Bytes.sub payload off len) in
    let rec ins = function
      | [] -> [ entry ]
      | (s, d) :: rest as l ->
          if Seq32.lt seq s then entry :: l
          else if s = seq then (s, d) :: rest (* duplicate *)
          else (s, d) :: ins rest
    in
    pcb.ooo <- ins pcb.ooo
  end

let rec drain_ooo pcb =
  match pcb.ooo with
  | (s, d) :: rest when Seq32.le s pcb.rcv_nxt ->
      pcb.ooo <- rest;
      let skip = Seq32.diff pcb.rcv_nxt s in
      if skip < Bytes.length d then begin
        let fresh = Bytes.length d - skip in
        let pushed = Bytebuf.push pcb.rcvbuf d ~off:skip ~len:fresh in
        pcb.rcv_nxt <- Seq32.add pcb.rcv_nxt pushed;
        if pushed < fresh then
          (* Buffer full: drop the tail, the peer will retransmit. *)
          pcb.ooo <- []
      end;
      drain_ooo pcb
  | _ -> ()

let rec process_payload pcb (hdr : Tcp_wire.header) payload ~off ~len =
  let seg_seq = hdr.Tcp_wire.seq in
  let fin = hdr.Tcp_wire.flags.Tcp_wire.fin in
  if len = 0 && not fin then ()
  else begin
    let t = pcb.t in
    t.stats.bytes_in <- t.stats.bytes_in + len;
    if len > 0 && Seq32.le (Seq32.add seg_seq len) pcb.rcv_nxt then begin
      (* Entirely old data: duplicate segment. *)
      t.stats.dup_segs_in <- t.stats.dup_segs_in + 1;
      ack_now pcb
    end
    else if Seq32.gt seg_seq pcb.rcv_nxt then begin
      (* A hole: stash and send an immediate duplicate ACK. *)
      insert_ooo pcb seg_seq payload ~off ~len;
      ack_now pcb
    end
    else begin
      (* In order (possibly with an old prefix to trim). *)
      let skip = Seq32.diff pcb.rcv_nxt seg_seq in
      let fresh = len - skip in
      let had_data = fresh > 0 in
      if had_data then begin
        let pushed = Bytebuf.push pcb.rcvbuf payload ~off:(off + skip) ~len:fresh in
        pcb.rcv_nxt <- Seq32.add pcb.rcv_nxt pushed
      end;
      drain_ooo pcb;
      (* FIN is in order only when every payload byte was consumed. *)
      let fin_in_order =
        fin && Seq32.ge pcb.rcv_nxt (Seq32.add seg_seq len) && pcb.ooo = []
      in
      if fin_in_order && not pcb.rcv_fin then begin
        pcb.rcv_fin <- true;
        pcb.rcv_nxt <- Seq32.add pcb.rcv_nxt 1;
        let rx_fin = Hook.T_rx (hook_flags hdr.Tcp_wire.flags ~payload_len:len) in
        (match pcb.state with
        | Established -> set_state pcb rx_fin Close_wait
        | Fin_wait_1 ->
            (* Our FIN not yet acked: simultaneous close. *)
            set_state pcb rx_fin Closing
        | Fin_wait_2 -> enter_time_wait ~cause:rx_fin pcb
        | Syn_received | Listen | Syn_sent | Close_wait | Closing | Last_ack
        | Time_wait | Closed ->
            ());
        ack_now pcb;
        pcb.handler Readable
      end
      else begin
        if had_data then begin
          ack_delayed pcb;
          pcb.handler Readable
        end
        else if len > 0 then ack_now pcb
      end
    end
  end

and enter_time_wait ~cause pcb =
  set_state pcb cause Time_wait;
  stop_rtx pcb;
  cancel_timer pcb.timewait_cancel;
  pcb.timewait_cancel <-
    Some
      (pcb.t.env.set_timer (2 * pcb.t.config.msl) (fun () ->
           pcb.timewait_cancel <- None;
           let h = pcb.handler in
           teardown ~cause:Hook.T_timer pcb;
           h Closed_normally))

(* {2 Input demultiplexing and the state machine} *)

let negotiate_from_syn pcb (hdr : Tcp_wire.header) =
  (match hdr.Tcp_wire.mss with
  | Some peer_mss -> pcb.mss <- min pcb.t.config.mss peer_mss
  | None -> pcb.mss <- min pcb.t.config.mss 536);
  match hdr.Tcp_wire.wscale with
  | Some ws when pcb.t.config.use_wscale ->
      pcb.snd_wscale <- min ws 14;
      pcb.rcv_wscale <- wscale_of_buf pcb.t.config.rcv_buf
  | Some _ | None ->
      pcb.snd_wscale <- 0;
      pcb.rcv_wscale <- 0

let handle_syn_sent pcb (hdr : Tcp_wire.header) =
  let rx = Hook.T_rx (hook_flags hdr.Tcp_wire.flags ~payload_len:0) in
  if hdr.Tcp_wire.flags.Tcp_wire.rst then begin
    if hdr.Tcp_wire.flags.Tcp_wire.ack && hdr.Tcp_wire.ack = pcb.snd_nxt then begin
      pcb.t.stats.rsts_in <- pcb.t.stats.rsts_in + 1;
      let h = pcb.handler in
      teardown ~cause:rx pcb;
      h Reset
    end
  end
  else if hdr.Tcp_wire.flags.Tcp_wire.syn && hdr.Tcp_wire.flags.Tcp_wire.ack then begin
    if hdr.Tcp_wire.ack = pcb.snd_nxt then begin
      negotiate_from_syn pcb hdr;
      pcb.irs <- hdr.Tcp_wire.seq;
      pcb.rcv_nxt <- Seq32.add hdr.Tcp_wire.seq 1;
      pcb.snd_una <- hdr.Tcp_wire.ack;
      (* SYN-ACK window is unscaled. *)
      pcb.snd_wnd <- hdr.Tcp_wire.window;
      pcb.snd_wl1 <- hdr.Tcp_wire.seq;
      pcb.snd_wl2 <- hdr.Tcp_wire.ack;
      set_state pcb rx Established;
      pcb.retries <- 0;
      stop_rtx pcb;
      ack_now pcb;
      pcb.handler Connected;
      output pcb
    end
    else
      emit_rst pcb.t ~src:pcb.local_ip ~dst:pcb.remote_ip ~src_port:pcb.local_port
        ~dst_port:pcb.remote_port ~seq:hdr.Tcp_wire.ack ~ack:0 ~with_ack:false
  end
  else if hdr.Tcp_wire.flags.Tcp_wire.syn then begin
    (* Simultaneous open. *)
    negotiate_from_syn pcb hdr;
    pcb.irs <- hdr.Tcp_wire.seq;
    pcb.rcv_nxt <- Seq32.add hdr.Tcp_wire.seq 1;
    set_state pcb rx Syn_received;
    emit_seg pcb ~seq:pcb.iss Tcp_wire.flag_syn_ack
  end

let handle_listener t listener ~src ~dst (hdr : Tcp_wire.header) =
  if hdr.Tcp_wire.flags.Tcp_wire.syn && not hdr.Tcp_wire.flags.Tcp_wire.ack then begin
    let pcb =
      new_pcb t ~local_ip:dst ~local_port:hdr.Tcp_wire.dst_port ~remote_ip:src
        ~remote_port:hdr.Tcp_wire.src_port ~state:Syn_received
    in
    negotiate_from_syn pcb hdr;
    pcb.iss <- t.env.random 0x7fffffff;
    pcb.snd_una <- pcb.iss;
    pcb.snd_nxt <- Seq32.add pcb.iss 1;
    pcb.snd_max <- pcb.snd_nxt;
    pcb.irs <- hdr.Tcp_wire.seq;
    pcb.rcv_nxt <- Seq32.add hdr.Tcp_wire.seq 1;
    (* SYN window is unscaled. *)
    pcb.snd_wnd <- hdr.Tcp_wire.window;
    pcb.snd_wl1 <- hdr.Tcp_wire.seq;
    pcb.snd_wl2 <- 0;
    Hashtbl.replace t.conns (key_of pcb) pcb;
    hook_transition pcb ~from_:Closed ~to_:Syn_received
      (Hook.T_rx (hook_flags hdr.Tcp_wire.flags ~payload_len:0));
    (* Remember the acceptor so establishment can hand the pcb over. *)
    pcb.handler <-
      (fun ev ->
        match ev with Accepted -> listener.on_accept pcb | _ -> ());
    emit_seg pcb ~seq:pcb.iss Tcp_wire.flag_syn_ack;
    arm_rtx pcb
  end
  else if not hdr.Tcp_wire.flags.Tcp_wire.rst then
    emit_rst t ~src:dst ~dst:src ~src_port:hdr.Tcp_wire.dst_port
      ~dst_port:hdr.Tcp_wire.src_port
      ~seq:(if hdr.Tcp_wire.flags.Tcp_wire.ack then hdr.Tcp_wire.ack else 0)
      ~ack:(Seq32.add hdr.Tcp_wire.seq 1)
      ~with_ack:(not hdr.Tcp_wire.flags.Tcp_wire.ack)

let handle_synchronized pcb (hdr : Tcp_wire.header) payload ~off ~len =
  let rx = Hook.T_rx (hook_flags hdr.Tcp_wire.flags ~payload_len:len) in
  if hdr.Tcp_wire.flags.Tcp_wire.rst then begin
    pcb.t.stats.rsts_in <- pcb.t.stats.rsts_in + 1;
    let h = pcb.handler in
    teardown ~cause:rx pcb;
    h Reset
  end
  else if hdr.Tcp_wire.flags.Tcp_wire.syn && pcb.state = Syn_received then
    (* Retransmitted SYN: repeat the SYN-ACK. *)
    emit_seg pcb ~seq:pcb.iss Tcp_wire.flag_syn_ack
  else begin
    (* Establishment completion for a passive open. *)
    (if pcb.state = Syn_received && hdr.Tcp_wire.flags.Tcp_wire.ack then
       if hdr.Tcp_wire.ack = pcb.snd_nxt then begin
         set_state pcb rx Established;
         pcb.snd_una <- hdr.Tcp_wire.ack;
         pcb.snd_wnd <- hdr.Tcp_wire.window lsl pcb.snd_wscale;
         pcb.snd_wl1 <- hdr.Tcp_wire.seq;
         pcb.snd_wl2 <- hdr.Tcp_wire.ack;
         pcb.retries <- 0;
         stop_rtx pcb;
         pcb.handler Accepted
       end
       else
         emit_rst pcb.t ~src:pcb.local_ip ~dst:pcb.remote_ip
           ~src_port:pcb.local_port ~dst_port:pcb.remote_port
           ~seq:hdr.Tcp_wire.ack ~ack:0 ~with_ack:false);
    match pcb.state with
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
        if hdr.Tcp_wire.flags.Tcp_wire.ack then begin
          let fin_was_acked () =
            pcb.fin_sent && Seq32.ge pcb.snd_una (Seq32.add pcb.fin_seq 1)
          in
          process_ack pcb hdr ~payload_len:len;
          update_snd_wnd pcb hdr;
          (* FIN-progress state transitions. *)
          (match pcb.state with
          | Fin_wait_1 when fin_was_acked () -> set_state pcb rx Fin_wait_2
          | Closing when fin_was_acked () -> enter_time_wait ~cause:rx pcb
          | Last_ack when fin_was_acked () ->
              let h = pcb.handler in
              teardown ~cause:rx pcb;
              h Closed_normally
          | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
          | Last_ack | Syn_received | Syn_sent | Listen | Time_wait | Closed ->
              ());
          if pcb.state <> Closed then begin
            process_payload pcb hdr payload ~off ~len;
            output pcb
          end
        end
    | Time_wait ->
        (* A retransmitted FIN: re-ACK and restart the 2MSL timer. *)
        if hdr.Tcp_wire.flags.Tcp_wire.fin then begin
          ack_now pcb;
          enter_time_wait ~cause:rx pcb
        end
    | Syn_received | Syn_sent | Listen | Closed -> ()
  end

let input t ~src ~dst (hdr : Tcp_wire.header) ~payload ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length payload - len then
    invalid_arg "Tcp.input";
  t.stats.segs_in <- t.stats.segs_in + 1;
  hook_seg ~tx:false ~lip:dst ~lport:hdr.Tcp_wire.dst_port ~rip:src
    ~rport:hdr.Tcp_wire.src_port
    (hook_flags hdr.Tcp_wire.flags ~payload_len:len);
  let key = (dst, hdr.Tcp_wire.dst_port, src, hdr.Tcp_wire.src_port) in
  match Hashtbl.find_opt t.conns key with
  | Some pcb -> (
      match pcb.state with
      | Syn_sent -> handle_syn_sent pcb hdr
      | Listen | Closed -> ()
      | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
      | Closing | Last_ack | Time_wait ->
          handle_synchronized pcb hdr payload ~off ~len)
  | None -> (
      match Hashtbl.find_opt t.listeners hdr.Tcp_wire.dst_port with
      | Some listener -> handle_listener t listener ~src ~dst hdr
      | None ->
          if not hdr.Tcp_wire.flags.Tcp_wire.rst then begin
            (* SYN and FIN each occupy one sequence number. *)
            let seg_len =
              len
              + (if hdr.Tcp_wire.flags.Tcp_wire.syn then 1 else 0)
              + if hdr.Tcp_wire.flags.Tcp_wire.fin then 1 else 0
            in
            match t.sabotage with
            | Some Ack_from_closed ->
                (* The §V-B bug: a closed port owes the sender a RST
                   (Table I — peers of a crashed server must see their
                   connection refused) but answers with a bare ACK
                   instead, keeping the peer convinced the connection
                   lives. The segment rule table must flag the ACK. *)
                let hdr' =
                  {
                    Tcp_wire.src_port = hdr.Tcp_wire.dst_port;
                    dst_port = hdr.Tcp_wire.src_port;
                    seq =
                      (if hdr.Tcp_wire.flags.Tcp_wire.ack then hdr.Tcp_wire.ack
                       else 0);
                    ack = Seq32.add hdr.Tcp_wire.seq seg_len;
                    flags = Tcp_wire.flag_ack;
                    window = 0;
                    mss = None;
                    wscale = None;
                  }
                in
                t.stats.segs_out <- t.stats.segs_out + 1;
                hook_seg ~tx:true ~lip:dst ~lport:hdr.Tcp_wire.dst_port ~rip:src
                  ~rport:hdr.Tcp_wire.src_port
                  (hook_flags Tcp_wire.flag_ack ~payload_len:0);
                t.env.emit ~src:dst ~dst:src hdr' ~payload:Bytes.empty
            | Some Stale_established | None ->
                emit_rst t ~src:dst ~dst:src ~src_port:hdr.Tcp_wire.dst_port
                  ~dst_port:hdr.Tcp_wire.src_port
                  ~seq:
                    (if hdr.Tcp_wire.flags.Tcp_wire.ack then hdr.Tcp_wire.ack
                     else 0)
                  ~ack:(Seq32.add hdr.Tcp_wire.seq seg_len)
                  ~with_ack:(not hdr.Tcp_wire.flags.Tcp_wire.ack)
          end)

let input_segment t ~src ~dst b ~off ~len =
  match Tcp_wire.decode_at ~src ~dst b ~off ~len with
  | Some (hdr, pay) ->
      input t ~src ~dst hdr ~payload:b ~off:pay ~len:(off + len - pay);
      true
  | None -> false

(* {2 Introspection and crash support} *)

let flight_size pcb = flight pcb
let snd_window pcb = pcb.snd_wnd
let rtx_armed pcb = pcb.rtx_cancel <> None
let ooo_count pcb = List.length pcb.ooo
let snd_unacked pcb = pcb.snd_una
let snd_next pcb = pcb.snd_nxt
let rcv_next pcb = pcb.rcv_nxt

let listening_ports t = Hashtbl.fold (fun p _ acc -> p :: acc) t.listeners [] |> List.sort compare

let established_tuples t =
  Hashtbl.fold
    (fun (lip, lp, rip, rp) pcb acc ->
      match pcb.state with
      | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
          (lip, lp, rip, rp) :: acc
      | Listen | Syn_sent | Syn_received | Time_wait | Closed -> acc)
    t.conns []

let connection_count t = Hashtbl.length t.conns

let shutdown_all t =
  let pcbs = Hashtbl.fold (fun _ pcb acc -> pcb :: acc) t.conns [] in
  List.iter
    (fun pcb ->
      stop_rtx pcb;
      cancel_timer pcb.delack_cancel;
      pcb.delack_cancel <- None;
      cancel_timer pcb.timewait_cancel;
      pcb.timewait_cancel <- None;
      set_state pcb Hook.T_crash Closed)
    pcbs;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.listeners

let set_sabotage t s = t.sabotage <- s

let resurrect t tuples =
  List.iter
    (fun ((lip, lp, rip, rp) as key) ->
      if not (Hashtbl.mem t.conns key) then begin
        let pcb =
          new_pcb t ~local_ip:lip ~local_port:lp ~remote_ip:rip ~remote_port:rp
            ~state:Established
        in
        Hashtbl.replace t.conns key pcb;
        (* The forged transition the rule table must reject: a crash
           wiped this PCB, yet the restarted engine claims it is
           Established again with no handshake behind it. *)
        hook_transition pcb ~from_:Closed ~to_:Established Hook.T_api
      end)
    tuples
