module Ipv4 = struct
  type t = int32

  let v a b c d =
    assert (a >= 0 && a < 256 && b >= 0 && b < 256);
    assert (c >= 0 && c < 256 && d >= 0 && d < 256);
    Int32.logor
      (Int32.shift_left (Int32.of_int a) 24)
      (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

  let of_int32 i = i
  let to_int32 t = t

  let octet t shift = Int32.to_int (Int32.shift_right_logical t shift) land 0xff

  let to_string t =
    Printf.sprintf "%d.%d.%d.%d" (octet t 24) (octet t 16) (octet t 8) (octet t 0)

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
        match
          (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
        with
        | Some a, Some b, Some c, Some d
          when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0 && d < 256
          ->
            Some (v a b c d)
        | _ -> None)
    | _ -> None

  let equal = Int32.equal
  let compare = Int32.compare
  let in_prefix ~prefix ~bits a =
    assert (bits >= 0 && bits <= 32);
    if bits = 0 then true
    else
      let mask = Int32.shift_left (-1l) (32 - bits) in
      Int32.equal (Int32.logand a mask) (Int32.logand prefix mask)
end

module Mac = struct
  type t = string (* 6 raw bytes *)

  let of_octets arr =
    assert (Array.length arr = 6);
    String.init 6 (fun i ->
        assert (arr.(i) >= 0 && arr.(i) < 256);
        Char.chr arr.(i))

  let to_octets t = Array.init 6 (fun i -> Char.code t.[i])
  let write t b ~off = Bytes.blit_string t 0 b off 6
  let read b ~off = Bytes.sub_string b off 6
  let broadcast = String.make 6 '\xff'
  let equal = String.equal

  let to_string t =
    String.concat ":" (List.map (Printf.sprintf "%02x") (Array.to_list (to_octets t)))

  let of_index i =
    (* 02:xx:xx:xx:xx:xx — locally administered, unicast. *)
    of_octets
      [|
        0x02;
        (i lsr 24) land 0xff;
        (i lsr 16) land 0xff;
        (i lsr 8) land 0xff;
        i land 0xff;
        0x01;
      |]
end
