type header = { src_port : int; dst_port : int }

let header_size = 8

let pseudo_header_sum ~src ~dst ~proto ~len =
  let b = Bytes.create 12 in
  Wire.put_ip b 0 src;
  Wire.put_ip b 4 dst;
  Wire.put_u8 b 8 0;
  Wire.put_u8 b 9 proto;
  Wire.put_u16 b 10 len;
  Checksum.add_bytes Checksum.zero b ~off:0 ~len:12

let build ~src ~dst h ~payload ~partial_only =
  let len = header_size + Bytes.length payload in
  let b = Bytes.create len in
  Wire.put_u16 b 0 h.src_port;
  Wire.put_u16 b 2 h.dst_port;
  Wire.put_u16 b 4 len;
  Wire.put_u16 b 6 0;
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  let pseudo = pseudo_header_sum ~src ~dst ~proto:17 ~len in
  if partial_only then
    (* Store the folded pseudo-header sum (not complemented): the
       offload engine later adds the datagram bytes and complements. *)
    Wire.put_u16 b 6 (Checksum.fold pseudo)
  else begin
    let csum = Checksum.finish (Checksum.add_bytes pseudo b ~off:0 ~len) in
    (* An all-zero computed checksum is transmitted as 0xffff. *)
    Wire.put_u16 b 6 (if csum = 0 then 0xffff else csum)
  end;
  b

let encode ~src ~dst h ~payload = build ~src ~dst h ~payload ~partial_only:false

let encode_partial_csum ~src ~dst h ~payload =
  build ~src ~dst h ~payload ~partial_only:true

let finalize_csum b =
  let partial = Wire.get_u16 b 6 in
  Wire.put_u16 b 6 0;
  let csum =
    Checksum.finish (Checksum.add_bytes (Checksum.add_int16 Checksum.zero partial) b ~off:0 ~len:(Bytes.length b))
  in
  Wire.put_u16 b 6 (if csum = 0 then 0xffff else csum)

let decode ~src ~dst b =
  if Bytes.length b < header_size then None
  else
    let len = Wire.get_u16 b 4 in
    if len < header_size || len > Bytes.length b then None
    else
      (* A transmitted checksum of 0 means the sender computed none
         (RFC 768; RFC 1122 §4.1.3.4): accept without verifying. *)
      let unchecked = Wire.get_u16 b 6 = 0 in
      let pseudo = pseudo_header_sum ~src ~dst ~proto:17 ~len in
      if
        (not unchecked)
        && Checksum.finish (Checksum.add_bytes pseudo b ~off:0 ~len) <> 0
      then None
      else
        Some
          ( { src_port = Wire.get_u16 b 0; dst_port = Wire.get_u16 b 2 },
            Bytes.sub b header_size (len - header_size) )
