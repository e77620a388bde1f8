type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Addr.Mac.t;
  sender_ip : Addr.Ipv4.t;
  target_mac : Addr.Mac.t;
  target_ip : Addr.Ipv4.t;
}

let packet_size = 28

let put_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let get_u16 b off = (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let put_ip b off ip =
  let v = Addr.Ipv4.to_int32 ip in
  for i = 0 to 3 do
    Bytes.set b (off + i)
      (Char.chr (Int32.to_int (Int32.shift_right_logical v ((3 - i) * 8)) land 0xff))
  done

let get_ip b off =
  let byte i = Int32.of_int (Char.code (Bytes.get b (off + i))) in
  Addr.Ipv4.of_int32
    (Int32.logor
       (Int32.shift_left (byte 0) 24)
       (Int32.logor
          (Int32.shift_left (byte 1) 16)
          (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3))))

let encode p =
  let b = Bytes.create packet_size in
  put_u16 b 0 1 (* htype ethernet *);
  put_u16 b 2 0x0800 (* ptype ipv4 *);
  Bytes.set b 4 '\006' (* hlen *);
  Bytes.set b 5 '\004' (* plen *);
  put_u16 b 6 (match p.op with Request -> 1 | Reply -> 2);
  Addr.Mac.write p.sender_mac b ~off:8;
  put_ip b 14 p.sender_ip;
  Addr.Mac.write p.target_mac b ~off:18;
  put_ip b 24 p.target_ip;
  b

let decode b =
  if Bytes.length b < packet_size then None
  else if get_u16 b 0 <> 1 || get_u16 b 2 <> 0x0800 then None
  else
    let op = match get_u16 b 6 with 1 -> Some Request | 2 -> Some Reply | _ -> None in
    match op with
    | None -> None
    | Some op ->
        Some
          {
            op;
            sender_mac = Addr.Mac.read b ~off:8;
            sender_ip = get_ip b 14;
            target_mac = Addr.Mac.read b ~off:18;
            target_ip = get_ip b 24;
          }

module Cache = struct
  module IpMap = Map.Make (struct
    type t = Addr.Ipv4.t

    let compare = Addr.Ipv4.compare
  end)

  type t = {
    my_mac : Addr.Mac.t;
    my_ip : Addr.Ipv4.t;
    max_pending : int;
    mutable entries : Addr.Mac.t IpMap.t;
    mutable waiting : (Addr.Mac.t -> unit) list IpMap.t;
  }

  let create ?(max_pending = 32) ~my_mac ~my_ip () =
    { my_mac; my_ip; max_pending; entries = IpMap.empty; waiting = IpMap.empty }

  let lookup t ip = IpMap.find_opt ip t.entries

  let insert t ip mac =
    t.entries <- IpMap.add ip mac t.entries;
    match IpMap.find_opt ip t.waiting with
    | None -> ()
    | Some callbacks ->
        t.waiting <- IpMap.remove ip t.waiting;
        List.iter (fun f -> f mac) (List.rev callbacks)

  let resolve t ip ~on_ready =
    match lookup t ip with
    | Some mac -> `Hit mac
    | None -> (
        match IpMap.find_opt ip t.waiting with
        | Some callbacks when List.length callbacks >= t.max_pending -> `Dropped
        | Some callbacks ->
            t.waiting <- IpMap.add ip (on_ready :: callbacks) t.waiting;
            `Wait
        | None ->
            t.waiting <- IpMap.add ip [ on_ready ] t.waiting;
            `Wait)

  let request_for t target_ip =
    {
      op = Request;
      sender_mac = t.my_mac;
      sender_ip = t.my_ip;
      target_mac = Addr.Mac.broadcast;
      target_ip;
    }

  let input t p =
    insert t p.sender_ip p.sender_mac;
    match p.op with
    | Request when Addr.Ipv4.equal p.target_ip t.my_ip ->
        Some
          {
            op = Reply;
            sender_mac = t.my_mac;
            sender_ip = t.my_ip;
            target_mac = p.sender_mac;
            target_ip = p.sender_ip;
          }
    | Request | Reply -> None

  let flush t =
    t.entries <- IpMap.empty;
    t.waiting <- IpMap.empty

  let size t = IpMap.cardinal t.entries
end
