module Wire = Newt_net.Wire
module Checksum = Newt_net.Checksum
module Udp = Newt_net.Udp
module Addr = Newt_net.Addr

let eth_hdr = 14
let ip_hdr = 20
let l4_off = eth_hdr + ip_hdr

(* Frame must be Ethernet II / IPv4 without options for these engines;
   the stack we feed them from never emits IP options. *)
let is_ipv4 frame =
  Bytes.length frame >= l4_off
  && Wire.get_u16 frame 12 = 0x0800
  && Wire.get_u8 frame eth_hdr = 0x45

let ip_proto frame = Wire.get_u8 frame (eth_hdr + 9)

let l4_csum_offset frame =
  if not (is_ipv4 frame) then None
  else
    match ip_proto frame with
    | 6 when Bytes.length frame >= l4_off + 20 -> Some (l4_off + 16)
    | 17 when Bytes.length frame >= l4_off + 8 -> Some (l4_off + 6)
    | _ -> None

let l4_len frame = Wire.get_u16 frame (eth_hdr + 2) - ip_hdr

let pseudo_sum frame =
  let src = Wire.get_ip frame (eth_hdr + 12) in
  let dst = Wire.get_ip frame (eth_hdr + 16) in
  Udp.pseudo_header_sum ~src ~dst ~proto:(ip_proto frame) ~len:(l4_len frame)

let finalize_l4_checksum frame =
  match l4_csum_offset frame with
  | None -> false
  | Some csum_off ->
      let len = l4_len frame in
      (* The IP total length must cover the checksum field and fit the
         frame; a corrupt one is refused, not summed. *)
      if csum_off + 2 > l4_off + len || l4_off + len > Bytes.length frame then false
      else begin
        Wire.put_u16 frame csum_off 0;
        let sum =
          Checksum.finish
            (Checksum.add_bytes (pseudo_sum frame) frame ~off:l4_off ~len)
        in
        let sum = if ip_proto frame = 17 && sum = 0 then 0xffff else sum in
        Wire.put_u16 frame csum_off sum;
        true
      end

let tso_split frame ~mss =
  assert (mss > 0);
  let is_tcp = is_ipv4 frame && ip_proto frame = 6 in
  if not is_tcp then [ frame ]
  else begin
    let thl = (Wire.get_u8 frame (l4_off + 12) lsr 4) * 4 in
    let headers_len = l4_off + thl in
    let payload_len = Bytes.length frame - headers_len in
    if payload_len <= mss then begin
      ignore (finalize_l4_checksum frame);
      [ frame ]
    end
    else begin
      let base_seq = Wire.get_u32 frame (l4_off + 4) in
      let base_ident = Wire.get_u16 frame (eth_hdr + 4) in
      let flags = Wire.get_u8 frame (l4_off + 13) in
      let src = Wire.get_ip frame (eth_hdr + 12) in
      let dst = Wire.get_ip frame (eth_hdr + 16) in
      let pieces = (payload_len + mss - 1) / mss in
      List.init pieces (fun i ->
          let off = i * mss in
          let len = min mss (payload_len - off) in
          let last = i = pieces - 1 in
          let seg = Bytes.create (headers_len + len) in
          Bytes.blit frame 0 seg 0 headers_len;
          Bytes.blit frame (headers_len + off) seg headers_len len;
          (* IP header: length, ident, fresh checksum. *)
          Wire.put_u16 seg (eth_hdr + 2) (ip_hdr + thl + len);
          Wire.put_u16 seg (eth_hdr + 4) ((base_ident + i) land 0xffff);
          Wire.put_u16 seg (eth_hdr + 10) 0;
          Wire.put_u16 seg (eth_hdr + 10)
            (Checksum.bytes seg ~off:eth_hdr ~len:ip_hdr);
          (* TCP header: advanced seq; FIN/PSH only on the last piece. *)
          Wire.put_u32 seg (l4_off + 4) ((base_seq + off) land 0xffffffff);
          let seg_flags = if last then flags else flags land lnot 0x09 in
          Wire.put_u8 seg (l4_off + 13) seg_flags;
          (* Fresh TCP checksum over pseudo-header and segment. *)
          Wire.put_u16 seg (l4_off + 16) 0;
          let l4len = thl + len in
          let pseudo = Udp.pseudo_header_sum ~src ~dst ~proto:6 ~len:l4len in
          Wire.put_u16 seg (l4_off + 16)
            (Checksum.finish (Checksum.add_bytes pseudo seg ~off:l4_off ~len:l4len));
          seg)
    end
  end
