module Costs = Newt_hw.Costs
module Time = Newt_sim.Time

type config =
  | Minix_sync
  | Split_dedicated
  | Split_dedicated_sc
  | Single_server_sc
  | Single_server_sc_tso
  | Split_dedicated_sc_tso
  | Linux_10gbe

let all =
  [
    Minix_sync;
    Split_dedicated;
    Split_dedicated_sc;
    Single_server_sc;
    Single_server_sc_tso;
    Split_dedicated_sc_tso;
    Linux_10gbe;
  ]

let name = function
  | Minix_sync -> "Minix 3, 1 CPU only, kernel IPC and copies"
  | Split_dedicated -> "NewtOS, split stack, dedicated cores"
  | Split_dedicated_sc -> "NewtOS, split stack, dedicated cores + SYSCALL"
  | Single_server_sc -> "NewtOS, 1 server stack, dedicated core + SYSCALL"
  | Single_server_sc_tso -> "NewtOS, 1 server stack, dedicated core + SYSCALL + TSO"
  | Split_dedicated_sc_tso -> "NewtOS, split stack, dedicated cores + SYSCALL + TSO"
  | Linux_10gbe -> "Linux, 10Gbe interface"

type stage = {
  label : string;
  cycles_per_segment : float;
  capacity_gbps : float;
  pool_ops_per_segment : float;
}

type result = {
  config : config;
  goodput_gbps : float;
  bottleneck : string;
  stages : stage list;
}

let cps = float_of_int Time.cycles_per_second

(* Ethernet framing per wire packet: preamble 8 + header 14 + FCS 4 +
   interframe gap 12 = 38 bytes on top of the IP packet. *)
let wire_goodput_gbps ~nics ~gbps_per_nic ~mss =
  let payload = float_of_int mss in
  let on_wire = payload +. 40.0 +. 38.0 in
  float_of_int nics *. gbps_per_nic *. (payload /. on_wire)

(* Message-passing primitives on the fast-path channels. *)
let msg_send (c : Costs.t) = float_of_int (c.Costs.channel_marshal + c.Costs.channel_enqueue)

let msg_recv (c : Costs.t) =
  float_of_int (c.Costs.channel_dequeue + c.Costs.channel_demux + c.Costs.cacheline_transfer)

let fi = float_of_int

(* {2 Pool operations}

   What each stage's server allocates and frees, per (super-)segment it
   sends and per ACK it receives. The server runtime charges
   [Costs.pool_op] for each call a server makes (Proc.pool_ops), so
   these counts must match what the servers do. An ACK arrives per two
   wire packets. *)
type pool_ops = { per_super : float; per_ack : float }

(* Split TCP: a header chunk and the payload chunks are allocated per
   segment and freed at its confirm. *)
let split_tcp_pool_ops ~mss ~tso_factor =
  let payload = int_of_float (Float.round (fi mss *. tso_factor)) in
  let chunk = Transport.chunk_size in
  let chunks = 1 + ((payload + chunk - 1) / chunk) in
  { per_super = fi (2 * chunks); per_ack = 0.0 }

(* Split IP: the merged header is allocated and freed at the driver's
   confirm; an ACK's receive buffer is freed at the transport's
   Rx_done. *)
let split_ip_pool_ops = { per_super = 2.0; per_ack = 1.0 }

(* Driver: each reaped receive descriptor is re-armed with a fresh
   buffer. *)
let driver_pool_ops = { per_super = 0.0; per_ack = 1.0 }

(* Single server: the frame is allocated and freed at its completion;
   an ACK's receive buffer is freed in place. *)
let single_pool_ops = { per_super = 2.0; per_ack = 1.0 }

let no_pool_ops = { per_super = 0.0; per_ack = 0.0 }

let pool_ops_per_segment ops ~tso_factor =
  (ops.per_super /. tso_factor) +. (ops.per_ack /. 2.0)

let pool_cycles (c : Costs.t) ops ~tso_factor =
  fi c.Costs.pool_op *. pool_ops_per_segment ops ~tso_factor

(* A synchronous kernel IPC round trip on a timeshared core: traps are
   cold (the kernel and the peer evict the caches) and each direction
   forces a context switch plus a cache refill. *)
let sync_ipc_timeshared (c : Costs.t) =
  fi (2 * c.Costs.trap_cold)
  +. fi c.Costs.kipc_kernel_work
  +. fi (2 * (c.Costs.context_switch + c.Costs.cache_refill))

let gbps_of_capacity ~bits_per_segment segs_per_sec = segs_per_sec *. bits_per_segment /. 1e9

(* {2 Per-stage cycles-per-segment for each configuration} *)

(* Cost of the application write path, amortized per segment. *)
let app_write_amortized (c : Costs.t) ~segs_per_write =
  (* One sendrec to the SYSCALL (or TCP) server per write. The app core
     is timeshared, but in the NewtOS configurations it only runs iperf,
     so traps are warm. *)
  fi (Costs.kipc_sendrec_cost c ~cold:false) /. segs_per_write

(* The TCP server core in the split stack. [sc] = SYSCALL server
   present; without it the TCP server itself performs the kernel IPC
   receive/reply for every application write. [tso] = segments handed
   down are TSO-sized super-segments of [tso_factor] MSS units; all
   per-segment costs then amortize by that factor.

   Per (super-)segment the TCP core pays: the amortized syscall-channel
   traffic, the protocol work, the zero-copy handoff to IP (marshal +
   enqueue), the per-request transmit confirm (dequeue + demux +
   request-database match), the pool operations of
   [split_tcp_pool_ops], and, per two wire packets, one incoming ACK
   (relayed by IP as an individual message). *)
let split_tcp_core (c : Costs.t) ~segs_per_write ~mss ~tso_factor =
  let sc_channel = (msg_recv c +. msg_send c) /. segs_per_write in
  let per_super =
    fi c.Costs.tcp_segment_work +. msg_send c +. msg_recv c (* Tx_ip_confirm *)
  in
  (* ACKs arrive per two *wire* packets regardless of TSO. *)
  let ack = (msg_recv c +. fi c.Costs.tcp_ack_work +. (msg_send c /. 2.0)) /. 2.0 in
  ((sc_channel +. per_super) /. tso_factor)
  +. ack
  +. pool_cycles c (split_tcp_pool_ops ~mss ~tso_factor) ~tso_factor

let split_tcp_core_no_sc (c : Costs.t) ~segs_per_write ~mss ~tso_factor =
  (* The TCP server performs the blocking kernel receive + reply itself;
     kernel entries from the asynchronous event loop run cold. *)
  let syscall_handling =
    fi ((2 * c.Costs.trap_cold) + c.Costs.kipc_kernel_work) /. segs_per_write
  in
  split_tcp_core c ~segs_per_write ~mss ~tso_factor +. syscall_handling

(* The IP server core in the split stack: receives the transport
   request, builds the merged header (immutable pools force a private
   copy), filters through PF (round trip), hands the frame to the
   driver, receives the (batched) driver completions and relays a
   per-request confirm to the transport. Plus the inbound half for
   ACKs: frame in, filter round trip, delivery to TCP, Rx_done. Pool
   operations: [split_ip_pool_ops]. *)
let split_ip_core (c : Costs.t) ~tso_factor ~pf =
  let pf_round = if pf then msg_send c +. msg_recv c else 0.0 in
  let tx =
    msg_recv c
    +. fi (c.Costs.ip_tx_work + c.Costs.header_adjust)
    +. pf_round
    +. msg_send c (* to driver *)
    +. (msg_recv c /. fi c.Costs.confirm_batch) (* batched completions *)
    +. msg_send c (* confirm to transport *)
  in
  let rx_ack =
    (msg_recv c +. fi c.Costs.ip_rx_work +. pf_round +. msg_send c
    +. msg_recv c (* Rx_done *))
    /. 2.0
  in
  (tx /. tso_factor) +. rx_ack +. pool_cycles c split_ip_pool_ops ~tso_factor

let pf_core (c : Costs.t) ~tso_factor =
  (* One verdict per outgoing (super-)segment, one per incoming ACK
     (conntrack hit: no ruleset walk). *)
  let per_verdict = msg_recv c +. fi c.Costs.pf_base +. msg_send c in
  (per_verdict /. tso_factor) +. (per_verdict /. 2.0)

let driver_core (c : Costs.t) ~tso_factor =
  let tx =
    msg_recv c +. fi c.Costs.driver_packet_work
    +. (msg_send c /. fi c.Costs.confirm_batch)
  in
  let rx_ack = (fi c.Costs.driver_packet_work +. msg_send c) /. 2.0 in
  (tx /. tso_factor) +. rx_ack +. pool_cycles c driver_pool_ops ~tso_factor

(* The merged single-server stack core: TCP and IP are function calls
   apart — no marshalling, no request tracking, no header-chunk copy
   between them, completions and receive-buffer returns are processed
   by ring scans. It still talks to the driver servers over channels.
   Pool operations: [single_pool_ops]. *)
let single_server_core (c : Costs.t) ~segs_per_write ~tso_factor =
  let sc_channel = (msg_recv c +. msg_send c) /. segs_per_write in
  let per_super =
    fi c.Costs.tcp_segment_work
    +. fi (c.Costs.ip_tx_work + c.Costs.header_adjust)
    +. msg_send c (* to driver *)
    +. (msg_recv c /. fi c.Costs.confirm_batch)
  in
  let ack =
    (msg_recv c +. fi c.Costs.ip_rx_work +. fi c.Costs.tcp_ack_work
    +. (msg_send c /. fi c.Costs.confirm_batch))
    /. 2.0
  in
  ((sc_channel +. per_super) /. tso_factor)
  +. ack
  +. pool_cycles c single_pool_ops ~tso_factor

let sc_core (c : Costs.t) ~segs_per_write =
  (* Per application write: the kernel IPC receive ("it pays the
     trapping toll"), a peek, a channel forward, the reply path. *)
  (fi (Costs.kipc_sendrec_cost c ~cold:false)
  +. msg_send c +. msg_recv c
  +. fi (Costs.kipc_sendrec_cost c ~cold:false / 2))
  /. segs_per_write

(* The original MINIX 3 stack: application, INET server and driver all
   timeshare one core; every hop is a synchronous kernel IPC with
   copies; the driver takes one packet at a time and each transmit
   completes through another synchronous round trip; checksums in
   software; the INET server predates lwIP and is markedly less
   efficient (factor below). *)
let minix_core (c : Costs.t) ~segs_per_write ~mss ~write_size =
  let inet_legacy_factor = 4.0 in
  let app_write =
    (sync_ipc_timeshared c +. fi (Costs.copy_cost c write_size)) /. segs_per_write
  in
  let proto = fi c.Costs.tcp_segment_work *. inet_legacy_factor in
  let csum = fi (Costs.checksum_cost c mss) in
  let copy_to_driver = fi (Costs.copy_cost c mss) in
  (* The original Minix ethernet driver protocol costs two synchronous
     round trips per packet (the write request and the completion
     acknowledgment each travel as separate DL_* messages). *)
  let driver_round = (2.0 *. sync_ipc_timeshared c) +. fi c.Costs.driver_packet_work in
  let completion_round = sync_ipc_timeshared c in
  let ack_path = (sync_ipc_timeshared c +. fi c.Costs.tcp_ack_work) /. 2.0 in
  app_write +. proto +. csum +. copy_to_driver +. driver_round +. completion_round
  +. ack_path

(* The monolithic (Linux-like) model with full offloads: the
   application core copies each write into the kernel and runs the
   transport for the TSO super-segment; the per-wire-packet softirq
   work (NAPI, skb management, qdisc, completions, locking) is the
   measured bottleneck of a single flow. *)
let mono_stages (c : Costs.t) ~write_size ~mss ~tso_factor =
  let app =
    (fi c.Costs.trap_hot +. fi (Costs.copy_cost c write_size)
    +. (fi (c.Costs.tcp_segment_work + c.Costs.ip_tx_work) *. (fi write_size /. (fi mss *. tso_factor))))
    /. (fi write_size /. fi mss)
  in
  let softirq = fi (c.Costs.mono_wire_packet_work + c.Costs.lock_contention) in
  (app, softirq)

(* {2 Evaluation} *)

let evaluate ?(costs = Costs.default) ?nics ?(mss = 1460) config =
  let c = costs in
  let bits_per_segment = float_of_int (mss * 8) in
  let write_size = 8192 in
  let segs_per_write = float_of_int write_size /. float_of_int mss in
  let tso_factor = 64000.0 /. float_of_int mss in
  let default_nics = match config with Linux_10gbe -> 1 | _ -> 5 in
  let nics = Option.value nics ~default:default_nics in
  let gbps_per_nic = match config with Linux_10gbe -> 10.0 | _ -> 1.0 in
  let wire = wire_goodput_gbps ~nics ~gbps_per_nic ~mss in
  let mk ?(pool = no_pool_ops) ?(tso_factor = 1.0) label cycles =
    {
      label;
      cycles_per_segment = cycles;
      capacity_gbps = gbps_of_capacity ~bits_per_segment (cps /. cycles);
      pool_ops_per_segment = pool_ops_per_segment pool ~tso_factor;
    }
  in
  let split_stages ~sc ~tso_factor =
    let tcp_pool = split_tcp_pool_ops ~mss ~tso_factor in
    [
      (if sc then
         mk ~pool:tcp_pool ~tso_factor "tcp server"
           (split_tcp_core c ~segs_per_write ~mss ~tso_factor)
       else
         mk ~pool:tcp_pool ~tso_factor "tcp server (handles syscalls)"
           (split_tcp_core_no_sc c ~segs_per_write ~mss ~tso_factor));
      mk ~pool:split_ip_pool_ops ~tso_factor "ip server"
        (split_ip_core c ~tso_factor ~pf:true);
      mk "pf server" (pf_core c ~tso_factor);
      mk ~pool:driver_pool_ops ~tso_factor "driver server" (driver_core c ~tso_factor);
    ]
    @ (if sc then [ mk "syscall server" (sc_core c ~segs_per_write) ] else [])
    @ [ mk "app core" (app_write_amortized c ~segs_per_write) ]
  in
  let single_stages ~tso_factor =
    [
      mk ~pool:single_pool_ops ~tso_factor "stack server (tcp+ip)"
        (single_server_core c ~segs_per_write ~tso_factor);
      mk ~pool:driver_pool_ops ~tso_factor "driver server" (driver_core c ~tso_factor);
      mk "syscall server" (sc_core c ~segs_per_write);
      mk "app core" (app_write_amortized c ~segs_per_write);
    ]
  in
  let stages =
    match config with
    | Minix_sync ->
        [ mk "shared core (app+inet+driver)" (minix_core c ~segs_per_write ~mss ~write_size) ]
    | Split_dedicated -> split_stages ~sc:false ~tso_factor:1.0
    | Split_dedicated_sc -> split_stages ~sc:true ~tso_factor:1.0
    | Single_server_sc -> single_stages ~tso_factor:1.0
    | Single_server_sc_tso -> single_stages ~tso_factor
    | Split_dedicated_sc_tso -> split_stages ~sc:true ~tso_factor
    | Linux_10gbe ->
        let app, softirq = mono_stages c ~write_size:65536 ~mss ~tso_factor in
        [ mk "app core (syscall+copy+tcp)" app; mk "kernel softirq per wire packet" softirq ]
  in
  let slowest =
    List.fold_left
      (fun acc s -> match acc with
        | Some best when best.capacity_gbps <= s.capacity_gbps -> acc
        | _ -> Some s)
      None stages
  in
  let slowest = Option.get slowest in
  if wire <= slowest.capacity_gbps then
    { config; goodput_gbps = wire; bottleneck = "wire"; stages }
  else
    { config; goodput_gbps = slowest.capacity_gbps; bottleneck = slowest.label; stages }
