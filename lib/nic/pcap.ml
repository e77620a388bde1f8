module Time = Newt_sim.Time

type record = { at : Time.cycles; frame : Bytes.t }

type t = { mutable records : record list (* newest first *) }

let snaplen = 65535
let create () = { records = [] }

let record t ~at frame =
  let frame =
    if Bytes.length frame > snaplen then Bytes.sub frame 0 snaplen else frame
  in
  t.records <- { at; frame } :: t.records

let attach t link = Link.tap link (fun ~at ~dir:_ frame -> record t ~at frame)

let frames t = List.length t.records

(* Little-endian 32/16-bit writers (pcap magic 0xa1b2c3d4, LE file). *)
let le32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let le16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let to_bytes t =
  let buf = Buffer.create 4096 in
  (* Global header. *)
  le32 buf 0xa1b2c3d4 (* magic, microsecond timestamps *);
  le16 buf 2;
  le16 buf 4 (* version 2.4 *);
  le32 buf 0 (* thiszone *);
  le32 buf 0 (* sigfigs *);
  le32 buf snaplen;
  le32 buf 1 (* LINKTYPE_ETHERNET *);
  List.iter
    (fun r ->
      let us_total = int_of_float (Time.to_seconds r.at *. 1e6) in
      le32 buf (us_total / 1_000_000);
      le32 buf (us_total mod 1_000_000);
      le32 buf (Bytes.length r.frame);
      le32 buf (Bytes.length r.frame);
      Buffer.add_bytes buf r.frame)
    (List.rev t.records);
  Buffer.to_bytes buf

let save t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes t))
