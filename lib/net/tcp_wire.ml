type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

let flag_none = { syn = false; ack = false; fin = false; rst = false; psh = false }
let flag_syn = { flag_none with syn = true }
let flag_ack = { flag_none with ack = true }
let flag_syn_ack = { flag_none with syn = true; ack = true }
let flag_fin_ack = { flag_none with fin = true; ack = true }
let flag_rst = { flag_none with rst = true }

let pp_flags ppf f =
  let tags =
    List.filter_map
      (fun (b, s) -> if b then Some s else None)
      [ (f.syn, "SYN"); (f.ack, "ACK"); (f.fin, "FIN"); (f.rst, "RST"); (f.psh, "PSH") ]
  in
  Format.pp_print_string ppf (String.concat "|" (if tags = [] then [ "-" ] else tags))

type header = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : flags;
  window : int;
  mss : int option;
  wscale : int option;
}

let options_size h =
  let mss = match h.mss with Some _ -> 4 | None -> 0 in
  let ws = match h.wscale with Some _ -> 3 | None -> 0 in
  (mss + ws + 3) / 4 * 4

let header_size h = 20 + options_size h

let flags_byte f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor if f.ack then 16 else 0

let flags_of_byte b =
  {
    fin = b land 1 <> 0;
    syn = b land 2 <> 0;
    rst = b land 4 <> 0;
    psh = b land 8 <> 0;
    ack = b land 16 <> 0;
  }

let encode ~src ~dst ?(partial_csum = false) h ~payload =
  let hsize = header_size h in
  let len = hsize + Bytes.length payload in
  let b = Bytes.create len in
  Wire.put_u16 b 0 h.src_port;
  Wire.put_u16 b 2 h.dst_port;
  Wire.put_u32 b 4 (h.seq land 0xffffffff);
  Wire.put_u32 b 8 (h.ack land 0xffffffff);
  Wire.put_u8 b 12 ((hsize / 4) lsl 4);
  Wire.put_u8 b 13 (flags_byte h.flags);
  Wire.put_u16 b 14 h.window;
  Wire.put_u16 b 16 0 (* checksum placeholder *);
  Wire.put_u16 b 18 0 (* urgent pointer *);
  let opt_off = ref 20 in
  (match h.mss with
  | Some mss ->
      Wire.put_u8 b !opt_off 2;
      Wire.put_u8 b (!opt_off + 1) 4;
      Wire.put_u16 b (!opt_off + 2) mss;
      opt_off := !opt_off + 4
  | None -> ());
  (match h.wscale with
  | Some ws ->
      Wire.put_u8 b !opt_off 3;
      Wire.put_u8 b (!opt_off + 1) 3;
      Wire.put_u8 b (!opt_off + 2) ws;
      opt_off := !opt_off + 3
  | None -> ());
  while !opt_off < hsize do
    Wire.put_u8 b !opt_off 1 (* NOP padding *);
    incr opt_off
  done;
  Bytes.blit payload 0 b hsize (Bytes.length payload);
  let pseudo = Udp.pseudo_header_sum ~src ~dst ~proto:6 ~len in
  if partial_csum then Wire.put_u16 b 16 (Checksum.fold pseudo)
  else Wire.put_u16 b 16 (Checksum.finish (Checksum.add_bytes pseudo b ~off:0 ~len));
  b

let finalize_csum b =
  let partial = Wire.get_u16 b 16 in
  Wire.put_u16 b 16 0;
  let sum =
    Checksum.finish
      (Checksum.add_bytes
         (Checksum.add_int16 Checksum.zero partial)
         b ~off:0 ~len:(Bytes.length b))
  in
  Wire.put_u16 b 16 sum

let decode_options b ~off hsize =
  let mss = ref None and wscale = ref None in
  let stop = off + hsize in
  let o = ref (off + 20) in
  (try
     while !o < stop do
       match Wire.get_u8 b !o with
       | 0 -> raise Exit (* end of options *)
       | 1 -> incr o (* NOP *)
       | 2 when !o + 4 <= stop ->
           mss := Some (Wire.get_u16 b (!o + 2));
           o := !o + 4
       | 3 when !o + 3 <= stop ->
           wscale := Some (Wire.get_u8 b (!o + 2));
           o := !o + 3
       | _ ->
           (* Unknown option: skip by its length byte, bail on nonsense. *)
           if !o + 1 >= stop then raise Exit
           else
             let l = Wire.get_u8 b (!o + 1) in
             if l < 2 then raise Exit else o := !o + l
     done
   with Exit -> ());
  (!mss, !wscale)

let decode_at ~src ~dst b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Tcp_wire.decode_at";
  if len < 20 then None
  else
    let pseudo = Udp.pseudo_header_sum ~src ~dst ~proto:6 ~len in
    if Checksum.finish (Checksum.add_bytes pseudo b ~off ~len) <> 0 then None
    else
      let hsize = (Wire.get_u8 b (off + 12) lsr 4) * 4 in
      if hsize < 20 || hsize > len then None
      else
        let mss, wscale = decode_options b ~off hsize in
        Some
          ( {
              src_port = Wire.get_u16 b off;
              dst_port = Wire.get_u16 b (off + 2);
              seq = Wire.get_u32 b (off + 4);
              ack = Wire.get_u32 b (off + 8);
              flags = flags_of_byte (Wire.get_u8 b (off + 13));
              window = Wire.get_u16 b (off + 14);
              mss;
              wscale;
            },
            off + hsize )

let decode ~src ~dst b =
  let len = Bytes.length b in
  Option.map
    (fun (h, pay) -> (h, Bytes.sub b pay (len - pay)))
    (decode_at ~src ~dst b ~off:0 ~len)
