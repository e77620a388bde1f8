module Addr = Newt_net.Addr

type proto = Ct_tcp | Ct_udp

type flow = {
  proto : proto;
  local_ip : Addr.Ipv4.t;
  local_port : int;
  remote_ip : Addr.Ipv4.t;
  remote_port : int;
}

type dir = [ `In | `Out ]

(* [confirmed] is the firewall's notion of "established". Seeing a
   reply is not enough to confirm: an inbound flood SYN provokes an
   automatic outbound RST (or SYN-ACK), so two-way traffic alone is
   exactly what an attacker gets for free. Confirmation requires the
   handshake shape — originator, reply, originator again — which a
   spoofed-source flood can never complete because the third packet
   must come from an address that actually received the reply.
   [orig_dir] is the creating direction, [replied] whether the other
   side has spoken. *)
type entry = {
  mutable last_seen : int;
  mutable confirmed : bool;
  mutable orig_dir : dir option;
  mutable replied : bool;
}

type t = {
  table : (flow, entry) Hashtbl.t;
  max_entries : int;
  mutable ev_half_open : int;
  mutable ev_established : int;
}

let default_max_entries = 65536

let create ?(max_entries = default_max_entries) () =
  if max_entries <= 0 then
    invalid_arg "Conntrack.create: max_entries must be positive";
  {
    table = Hashtbl.create 64;
    max_entries;
    ev_half_open = 0;
    ev_established = 0;
  }

let promote e (dir : dir option) =
  if not e.confirmed then
    match (dir, e.orig_dir) with
    | Some d, Some o ->
        if d <> o then e.replied <- true
        else if e.replied then e.confirmed <- true
    | Some _, None -> e.orig_dir <- dir
    | None, _ -> ()

(* At capacity an entry makes room for the fresh flow — but never an
   established one while any half-open entry remains: under a SYN
   flood the attacker's one-way entries must cannibalize each other,
   not the conntrack state the paper's recovery story exists to keep
   ("a firewall must not stop data on established outgoing TCP
   connections"). Within a class the least-recently-seen entry goes,
   as it is the one closest to its idle timeout anyway. *)
let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun f e acc ->
        match acc with
        | Some (_, best) when best.confirmed && not e.confirmed -> Some (f, e)
        | Some (_, best)
          when best.confirmed = e.confirmed && e.last_seen < best.last_seen ->
            Some (f, e)
        | Some _ -> acc
        | None -> Some (f, e))
      t.table None
  in
  match victim with
  | Some (f, e) ->
      if e.confirmed then t.ev_established <- t.ev_established + 1
      else t.ev_half_open <- t.ev_half_open + 1;
      Hashtbl.remove t.table f
  | None -> ()

let insert t ~now ?dir ?(confirmed = false) flow =
  match Hashtbl.find_opt t.table flow with
  | Some e ->
      e.last_seen <- now;
      if confirmed then e.confirmed <- true else promote e dir
  | None ->
      if Hashtbl.length t.table >= t.max_entries then evict_oldest t;
      Hashtbl.replace t.table flow
        { last_seen = now; confirmed; orig_dir = dir; replied = confirmed }

let seen t ~now ?dir flow =
  match Hashtbl.find_opt t.table flow with
  | Some e ->
      e.last_seen <- now;
      promote e dir;
      true
  | None -> false

let mem t flow = Hashtbl.mem t.table flow

let last_seen t flow =
  Option.map (fun e -> e.last_seen) (Hashtbl.find_opt t.table flow)

let confirmed t flow =
  Option.map (fun e -> e.confirmed) (Hashtbl.find_opt t.table flow)

let size t = Hashtbl.length t.table

let half_open_count t =
  Hashtbl.fold (fun _ e n -> if e.confirmed then n else n + 1) t.table 0

let evicted_half_open t = t.ev_half_open
let evicted_established t = t.ev_established

let expire t ~now ~ttl =
  let doomed =
    Hashtbl.fold
      (fun f e acc -> if now - e.last_seen > ttl then f :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed;
  List.length doomed

let export t =
  Hashtbl.fold (fun f e acc -> (f, e.last_seen, e.confirmed) :: acc) t.table []
  |> List.sort compare

let import t entries =
  Hashtbl.reset t.table;
  List.iter
    (fun (f, seen, confirmed) -> insert t ~now:seen ~confirmed f)
    entries

let clear t = Hashtbl.reset t.table

let flow_of_packet (p : Rule.packet) =
  let proto =
    match p.Rule.proto with
    | `Tcp -> Some Ct_tcp
    | `Udp -> Some Ct_udp
    | `Icmp | `Other -> None
  in
  match proto with
  | None -> None
  | Some proto -> (
      match p.Rule.dir with
      | `Out ->
          Some
            {
              proto;
              local_ip = p.Rule.src_ip;
              local_port = p.Rule.src_port;
              remote_ip = p.Rule.dst_ip;
              remote_port = p.Rule.dst_port;
            }
      | `In ->
          Some
            {
              proto;
              local_ip = p.Rule.dst_ip;
              local_port = p.Rule.dst_port;
              remote_ip = p.Rule.src_ip;
              remote_port = p.Rule.src_port;
            })
