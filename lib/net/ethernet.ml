type ethertype = Ipv4 | Arp | Unknown of int

type header = { dst : Addr.Mac.t; src : Addr.Mac.t; ethertype : ethertype }

let header_size = 14

let ethertype_code = function
  | Ipv4 -> 0x0800
  | Arp -> 0x0806
  | Unknown c -> c

let ethertype_of_code = function
  | 0x0800 -> Ipv4
  | 0x0806 -> Arp
  | c -> Unknown c

let encode_header h b ~off =
  Addr.Mac.write h.dst b ~off;
  Addr.Mac.write h.src b ~off:(off + 6);
  let code = ethertype_code h.ethertype in
  Bytes.set b (off + 12) (Char.chr (code lsr 8));
  Bytes.set b (off + 13) (Char.chr (code land 0xff))

let decode_header b ~off =
  if Bytes.length b - off < header_size then None
  else
    let dst = Addr.Mac.read b ~off in
    let src = Addr.Mac.read b ~off:(off + 6) in
    let code = (Char.code (Bytes.get b (off + 12)) lsl 8) lor Char.code (Bytes.get b (off + 13)) in
    Some { dst; src; ethertype = ethertype_of_code code }

let frame h ~payload =
  let b = Bytes.create (header_size + Bytes.length payload) in
  encode_header h b ~off:0;
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  b

let payload b =
  if Bytes.length b < header_size then None
  else Some (Bytes.sub b header_size (Bytes.length b - header_size))
