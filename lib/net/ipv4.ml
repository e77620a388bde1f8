type protocol = Icmp | Tcp | Udp | Unknown of int

let protocol_code = function Icmp -> 1 | Tcp -> 6 | Udp -> 17 | Unknown c -> c

let protocol_of_code = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | c -> Unknown c

type header = {
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
  protocol : protocol;
  ttl : int;
  ident : int;
  total_len : int;
}

let header_size = 20

let encode_header h b ~off =
  Wire.put_u8 b off 0x45 (* version 4, ihl 5 *);
  Wire.put_u8 b (off + 1) 0 (* dscp/ecn *);
  Wire.put_u16 b (off + 2) h.total_len;
  Wire.put_u16 b (off + 4) h.ident;
  Wire.put_u16 b (off + 6) 0 (* flags/fragment: never fragmented *);
  Wire.put_u8 b (off + 8) h.ttl;
  Wire.put_u8 b (off + 9) (protocol_code h.protocol);
  Wire.put_u16 b (off + 10) 0 (* checksum placeholder *);
  Wire.put_ip b (off + 12) h.src;
  Wire.put_ip b (off + 16) h.dst;
  let csum = Checksum.bytes b ~off ~len:header_size in
  Wire.put_u16 b (off + 10) csum

let decode_header b ~off =
  if Bytes.length b - off < header_size then None
  else if Wire.get_u8 b off <> 0x45 then None
  else if not (Checksum.valid b ~off ~len:header_size) then None
  else
    Some
      {
        total_len = Wire.get_u16 b (off + 2);
        ident = Wire.get_u16 b (off + 4);
        ttl = Wire.get_u8 b (off + 8);
        protocol = protocol_of_code (Wire.get_u8 b (off + 9));
        src = Wire.get_ip b (off + 12);
        dst = Wire.get_ip b (off + 16);
      }

let packet h ~payload =
  let total_len = header_size + Bytes.length payload in
  let b = Bytes.create total_len in
  encode_header { h with total_len } b ~off:0;
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  b

let payload_at b ~off =
  match decode_header b ~off with
  | None -> None
  | Some h ->
      let len = min (Bytes.length b - off) h.total_len - header_size in
      if len < 0 then None else Some (h, off + header_size, len)

let payload b =
  Option.map (fun (h, off, len) -> (h, Bytes.sub b off len)) (payload_at b ~off:0)

module Route = struct
  type entry = {
    prefix : Addr.Ipv4.t;
    bits : int;
    iface : int;
    gateway : Addr.Ipv4.t option;
  }

  type table = { mutable routes : entry list (* most specific first *) }

  let create () = { routes = [] }

  let add t e =
    assert (e.bits >= 0 && e.bits <= 32);
    let others =
      List.filter
        (fun r -> not (Addr.Ipv4.equal r.prefix e.prefix && r.bits = e.bits))
        t.routes
    in
    t.routes <- List.sort (fun a b -> compare b.bits a.bits) (e :: others)

  let remove t ~prefix ~bits =
    t.routes <-
      List.filter
        (fun r -> not (Addr.Ipv4.equal r.prefix prefix && r.bits = bits))
        t.routes

  let lookup t dst =
    List.find_opt (fun r -> Addr.Ipv4.in_prefix ~prefix:r.prefix ~bits:r.bits dst) t.routes

  let entries t = t.routes
  let clear t = t.routes <- []
end
