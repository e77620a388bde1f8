type t = {
  trap_hot : Time.cycles;
  trap_cold : Time.cycles;
  kipc_kernel_work : Time.cycles;
  context_switch : Time.cycles;
  cache_refill : Time.cycles;
  ipi_cost : Time.cycles;
  ipi_latency : Time.cycles;
  channel_enqueue : Time.cycles;
  channel_dequeue : Time.cycles;
  channel_marshal : Time.cycles;
  channel_demux : Time.cycles;
  cacheline_transfer : Time.cycles;
  mwait_wakeup : Time.cycles;
  poll_window : Time.cycles;
  copy_bytes_per_cycle : int;
  checksum_bytes_per_cycle : int;
  tcp_segment_work : Time.cycles;
  tcp_ack_work : Time.cycles;
  udp_segment_work : Time.cycles;
  ip_tx_work : Time.cycles;
  ip_rx_work : Time.cycles;
  header_adjust : Time.cycles;
  pf_base : Time.cycles;
  pf_rule_cost : Time.cycles;
  driver_packet_work : Time.cycles;
  pool_op : Time.cycles;
  confirm_batch : int;
  syscall_msg_size : int;
  mono_wire_packet_work : Time.cycles;
  lock_contention : Time.cycles;
}

let default =
  {
    trap_hot = 150;
    trap_cold = 3000;
    kipc_kernel_work = 600;
    context_switch = 2000;
    cache_refill = 15000;
    ipi_cost = 1500;
    ipi_latency = 1000;
    channel_enqueue = 30;
    channel_dequeue = 30;
    channel_marshal = 300;
    channel_demux = 250;
    cacheline_transfer = 120;
    mwait_wakeup = 2000;
    poll_window = 50_000;
    copy_bytes_per_cycle = 4;
    checksum_bytes_per_cycle = 4;
    tcp_segment_work = 4400;
    tcp_ack_work = 700;
    udp_segment_work = 1200;
    ip_tx_work = 250;
    ip_rx_work = 125;
    header_adjust = 50;
    pf_base = 200;
    pf_rule_cost = 15;
    driver_packet_work = 300;
    pool_op = 100;
    confirm_batch = 8;
    syscall_msg_size = 64;
    mono_wire_packet_work = 2300;
    lock_contention = 300;
  }

let copy_cost c bytes =
  assert (bytes >= 0);
  (bytes + c.copy_bytes_per_cycle - 1) / c.copy_bytes_per_cycle

let checksum_cost c bytes =
  assert (bytes >= 0);
  (bytes + c.checksum_bytes_per_cycle - 1) / c.checksum_bytes_per_cycle

let kipc_sendrec_cost c ~cold =
  let trap = if cold then c.trap_cold else c.trap_hot in
  (2 * trap) + c.kipc_kernel_work
