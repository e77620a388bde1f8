(* Tests for the packet filter: rule matching, PF evaluation semantics
   (last match wins, quick, keep state), connection tracking, packet
   classification, and the crash-recovery interfaces. *)

module Rule = Newt_pf.Rule
module Conntrack = Newt_pf.Conntrack
module Pf_engine = Newt_pf.Pf_engine
module Addr = Newt_net.Addr
module Ipv4 = Newt_net.Ipv4
module Tcp_wire = Newt_net.Tcp_wire
module Rng = Newt_sim.Rng

let ip = Addr.Ipv4.v

let pkt ?(dir = `Out) ?(proto = `Tcp) ?(src = ip 10 0 0 1) ?(dst = ip 10 0 0 2)
    ?(sport = 40000) ?(dport = 80) () =
  { Rule.dir; proto; src_ip = src; dst_ip = dst; src_port = sport; dst_port = dport }

let test_rule_matching () =
  let r =
    {
      Rule.pass_all with
      Rule.proto = Rule.Match_tcp;
      direction = Rule.Dir_out;
      dst = Rule.Net { prefix = ip 10 0 0 0; bits = 8 };
      dst_port = Rule.Port_range (80, 90);
    }
  in
  Alcotest.(check bool) "matches" true (Rule.matches r (pkt ()));
  Alcotest.(check bool) "wrong proto" false (Rule.matches r (pkt ~proto:`Udp ()));
  Alcotest.(check bool) "wrong direction" false (Rule.matches r (pkt ~dir:`In ()));
  Alcotest.(check bool) "port out of range" false (Rule.matches r (pkt ~dport:91 ()));
  Alcotest.(check bool) "port range edge" true (Rule.matches r (pkt ~dport:90 ()));
  Alcotest.(check bool) "dst outside prefix" false
    (Rule.matches r (pkt ~dst:(ip 11 0 0 1) ()))

let test_last_match_wins () =
  let e =
    Pf_engine.create
      ~rules:
        [
          { Rule.block_all with Rule.quick = false };
          { Rule.pass_all with Rule.quick = false; keep_state = false };
        ]
      ()
  in
  let v = Pf_engine.filter e ~now:0 (pkt ()) in
  Alcotest.(check bool) "later pass overrides earlier block" true
    (v.Pf_engine.action = Rule.Pass);
  Alcotest.(check int) "walked both rules" 2 v.Pf_engine.rules_walked

let test_quick_short_circuits () =
  let e =
    Pf_engine.create
      ~rules:
        [
          { Rule.block_all with Rule.quick = true };
          { Rule.pass_all with Rule.quick = false; keep_state = false };
        ]
      ()
  in
  let v = Pf_engine.filter e ~now:0 (pkt ()) in
  Alcotest.(check bool) "quick block sticks" true (v.Pf_engine.action = Rule.Block);
  Alcotest.(check int) "stopped at rule 1" 1 v.Pf_engine.rules_walked

let test_default_pass () =
  let e = Pf_engine.create ~rules:[] () in
  let v = Pf_engine.filter e ~now:0 (pkt ()) in
  Alcotest.(check bool) "implicit pass" true (v.Pf_engine.action = Rule.Pass)

let test_keep_state_bypasses_rules () =
  let e = Pf_engine.create ~rules:[ Rule.pass_all ] () in
  let v1 = Pf_engine.filter e ~now:0 (pkt ()) in
  Alcotest.(check bool) "first packet walks rules" true (v1.Pf_engine.rules_walked > 0);
  Alcotest.(check bool) "no state hit yet" false v1.Pf_engine.state_hit;
  let v2 = Pf_engine.filter e ~now:0 (pkt ()) in
  Alcotest.(check bool) "second packet hits state" true v2.Pf_engine.state_hit;
  Alcotest.(check int) "no rules walked" 0 v2.Pf_engine.rules_walked

let test_state_admits_reply_direction () =
  (* The paper's firewall property: an established outgoing connection
     must keep working even when incoming traffic is blocked. *)
  let e =
    Pf_engine.create
      ~rules:
        [
          { Rule.block_all with Rule.direction = Rule.Dir_in; quick = false };
          { Rule.pass_all with Rule.direction = Rule.Dir_out; quick = false };
        ]
      ()
  in
  let out = pkt ~dir:`Out () in
  let v1 = Pf_engine.filter e ~now:0 out in
  Alcotest.(check bool) "outgoing passes" true (v1.Pf_engine.action = Rule.Pass);
  (* The reply: src/dst flipped, inbound. *)
  let reply =
    pkt ~dir:`In ~src:(ip 10 0 0 2) ~dst:(ip 10 0 0 1) ~sport:80 ~dport:40000 ()
  in
  let v2 = Pf_engine.filter e ~now:0 reply in
  Alcotest.(check bool) "reply admitted by state" true v2.Pf_engine.state_hit;
  (* An unrelated inbound packet is still blocked. *)
  let stranger = pkt ~dir:`In ~src:(ip 99 9 9 9) ~dport:40000 () in
  let v3 = Pf_engine.filter e ~now:0 stranger in
  Alcotest.(check bool) "stranger blocked" true (v3.Pf_engine.action = Rule.Block)

let ct_flow ?(proto = Conntrack.Ct_tcp) ?(lport = 12345) ?(rport = 22) () =
  {
    Conntrack.proto;
    local_ip = ip 10 0 0 1;
    local_port = lport;
    remote_ip = ip 10 0 0 2;
    remote_port = rport;
  }

let test_conntrack_export_import () =
  let ct = Conntrack.create () in
  let flow = ct_flow () in
  Conntrack.insert ct ~now:7 flow;
  let saved = Conntrack.export ct in
  Conntrack.clear ct;
  Alcotest.(check bool) "gone after clear" false (Conntrack.mem ct flow);
  Conntrack.import ct saved;
  Alcotest.(check bool) "back after import" true (Conntrack.mem ct flow);
  Alcotest.(check int) "size" 1 (Conntrack.size ct);
  Alcotest.(check (option int)) "last-seen time preserved" (Some 7)
    (Conntrack.last_seen ct flow)

let test_conntrack_expiry () =
  let sec = Newt_sim.Time.of_seconds in
  let e = Pf_engine.create ~rules:[ Rule.pass_all ] ~ttl:(sec 1.0) () in
  ignore (Pf_engine.filter e ~now:0 (pkt ()));
  Alcotest.(check int) "tracked" 1 (Conntrack.size (Pf_engine.conntrack e));
  (* Traffic refreshes the entry: a state hit at 0.9 s resets the
     idle clock, so the sweep at 1.5 s finds nothing to drop... *)
  let v = Pf_engine.filter e ~now:(sec 0.9) (pkt ()) in
  Alcotest.(check bool) "state hit refreshes" true v.Pf_engine.state_hit;
  Alcotest.(check int) "refreshed entry survives" 0
    (Pf_engine.sweep e ~now:(sec 1.5));
  (* ...and the entry dies once idle past the TTL. *)
  Alcotest.(check int) "idle entry expires" 1
    (Pf_engine.sweep e ~now:(sec 2.0));
  let v2 = Pf_engine.filter e ~now:(sec 2.0) (pkt ()) in
  Alcotest.(check bool) "expired flow walks rules again" false
    v2.Pf_engine.state_hit

let test_conntrack_cap_evicts_oldest () =
  let ct = Conntrack.create ~max_entries:4 () in
  for i = 1 to 4 do
    Conntrack.insert ct ~now:i (ct_flow ~lport:i ())
  done;
  Conntrack.insert ct ~now:5 (ct_flow ~lport:5 ());
  Alcotest.(check int) "capped" 4 (Conntrack.size ct);
  Alcotest.(check bool) "coldest entry evicted" false
    (Conntrack.mem ct (ct_flow ~lport:1 ()));
  Alcotest.(check bool) "newcomer admitted" true
    (Conntrack.mem ct (ct_flow ~lport:5 ()));
  (* Refreshing an entry is not an insertion: no eviction. *)
  Conntrack.insert ct ~now:6 (ct_flow ~lport:2 ());
  Alcotest.(check int) "refresh keeps size" 4 (Conntrack.size ct)

let test_conntrack_handshake_confirmation () =
  let ct = Conntrack.create () in
  let f = ct_flow () in
  Conntrack.insert ct ~now:1 ~dir:`In f;
  Alcotest.(check (option bool)) "new entry starts half-open" (Some false)
    (Conntrack.confirmed ct f);
  Alcotest.(check int) "counted half-open" 1 (Conntrack.half_open_count ct);
  (* A lone reply is not enough: an inbound flood SYN provokes an
     automatic RST/SYN-ACK, so two-way traffic comes for free. *)
  ignore (Conntrack.seen ct ~now:2 ~dir:`Out f);
  Alcotest.(check (option bool)) "a lone reply does not confirm" (Some false)
    (Conntrack.confirmed ct f);
  ignore (Conntrack.seen ct ~now:3 ~dir:`Out f);
  Alcotest.(check (option bool)) "more replies still do not" (Some false)
    (Conntrack.confirmed ct f);
  (* The originator speaking again after the reply — the handshake's
     third packet, which a spoofed source can never send. *)
  ignore (Conntrack.seen ct ~now:4 ~dir:`In f);
  Alcotest.(check (option bool)) "originator-after-reply confirms"
    (Some true) (Conntrack.confirmed ct f);
  Alcotest.(check int) "no longer half-open" 0 (Conntrack.half_open_count ct);
  (* The confirmation bit travels through export/import. *)
  let ct2 = Conntrack.create () in
  Conntrack.import ct2 (Conntrack.export ct);
  Alcotest.(check (option bool)) "confirmation survives a snapshot"
    (Some true) (Conntrack.confirmed ct2 f)

let test_conntrack_flood_evicts_half_open_first () =
  (* Regression against the state-blind LRU: under a SYN flood the
     oldest entries are precisely the long-lived established flows, so
     pure LRU evicted the connections the recovery story exists to
     protect and kept the attacker's half-open state. *)
  let ct = Conntrack.create ~max_entries:8 () in
  Conntrack.insert ct ~now:1 ~confirmed:true (ct_flow ~lport:1 ());
  Conntrack.insert ct ~now:2 ~confirmed:true (ct_flow ~lport:2 ());
  for i = 3 to 20 do
    (* The flood: strictly fresher than both established flows. *)
    Conntrack.insert ct ~now:i ~dir:`In (ct_flow ~lport:(1000 + i) ())
  done;
  Alcotest.(check int) "capped" 8 (Conntrack.size ct);
  Alcotest.(check bool) "oldest established flow survives the flood" true
    (Conntrack.mem ct (ct_flow ~lport:1 ()));
  Alcotest.(check bool) "second established flow survives too" true
    (Conntrack.mem ct (ct_flow ~lport:2 ()));
  Alcotest.(check int) "every eviction hit a half-open entry" 12
    (Conntrack.evicted_half_open ct);
  Alcotest.(check int) "no established entry was sacrificed" 0
    (Conntrack.evicted_established ct)

let test_conntrack_established_evicted_only_as_last_resort () =
  let ct = Conntrack.create ~max_entries:4 () in
  for i = 1 to 4 do
    Conntrack.insert ct ~now:i ~confirmed:true (ct_flow ~lport:i ())
  done;
  Conntrack.insert ct ~now:5 ~dir:`In (ct_flow ~lport:5 ());
  Alcotest.(check bool) "all-established table evicts its oldest" false
    (Conntrack.mem ct (ct_flow ~lport:1 ()));
  Alcotest.(check int) "counted as an established eviction" 1
    (Conntrack.evicted_established ct);
  Alcotest.(check int) "no half-open eviction happened" 0
    (Conntrack.evicted_half_open ct)

let test_conntrack_import_keeps_expiry_clock () =
  (* The restart scenario the timestamps exist for: entries restored
     from a snapshot must be as close to expiry as when exported, not
     born-again fresh. *)
  let ct = Conntrack.create () in
  let old_flow = ct_flow ~lport:1 () and fresh_flow = ct_flow ~lport:2 () in
  Conntrack.insert ct ~now:10 old_flow;
  Conntrack.insert ct ~now:500 fresh_flow;
  let saved = Conntrack.export ct in
  let ct2 = Conntrack.create () in
  Conntrack.import ct2 saved;
  Alcotest.(check int) "only the stale restored entry expires" 1
    (Conntrack.expire ct2 ~now:600 ~ttl:200);
  Alcotest.(check bool) "stale gone" false (Conntrack.mem ct2 old_flow);
  Alcotest.(check bool) "fresh kept" true (Conntrack.mem ct2 fresh_flow)

let test_classify_tcp () =
  let src = ip 10 0 0 1 and dst = ip 10 0 0 2 in
  let seg =
    Tcp_wire.encode ~src ~dst
      {
        Tcp_wire.src_port = 40000;
        dst_port = 443;
        seq = 0;
        ack = 0;
        flags = Tcp_wire.flag_syn;
        window = 1000;
        mss = Some 1460;
        wscale = None;
      }
      ~payload:Bytes.empty
  in
  let packet =
    Ipv4.packet
      { Ipv4.src; dst; protocol = Ipv4.Tcp; ttl = 64; ident = 0; total_len = 0 }
      ~payload:seg
  in
  match Pf_engine.classify ~dir:`Out packet with
  | Some key ->
      Alcotest.(check bool) "proto" true (key.Rule.proto = `Tcp);
      Alcotest.(check int) "sport" 40000 key.Rule.src_port;
      Alcotest.(check int) "dport" 443 key.Rule.dst_port;
      Alcotest.(check bool) "src" true (Addr.Ipv4.equal key.Rule.src_ip src)
  | None -> Alcotest.fail "classify failed"

let test_classify_garbage () =
  Alcotest.(check bool) "short buffer" true
    (Pf_engine.classify ~dir:`In (Bytes.create 4) = None);
  let junk = Bytes.make 40 '\xff' in
  Alcotest.(check bool) "not ipv4" true (Pf_engine.classify ~dir:`In junk = None)

let test_generated_ruleset_shape () =
  let rules = Pf_engine.generate_ruleset (Rng.create 3) ~n:1024 ~protect_port:5001 in
  Alcotest.(check int) "1024 rules" 1024 (List.length rules);
  let e = Pf_engine.create ~rules () in
  (* The protected flow passes... *)
  let v = Pf_engine.filter e ~now:0 (pkt ~dport:5001 ()) in
  Alcotest.(check bool) "protected port passes" true (v.Pf_engine.action = Rule.Pass);
  (* ...and the noise rules really do block their targets. *)
  let blocked =
    List.exists
      (fun r ->
        match (r.Rule.action, r.Rule.src, r.Rule.dst_port) with
        | Rule.Block, Rule.Net { prefix; _ }, Rule.Port p ->
            let probe = pkt ~src:prefix ~dport:p () in
            (Pf_engine.filter e ~now:0 probe).Pf_engine.action = Rule.Block
        | _ -> false)
      rules
  in
  Alcotest.(check bool) "noise rules block their targets" true blocked

let test_restore () =
  let e = Pf_engine.create () in
  let rules = Pf_engine.generate_ruleset (Rng.create 5) ~n:16 ~protect_port:80 in
  let states = [ (ct_flow ~lport:1 ~rport:2 (), 42, true) ] in
  Pf_engine.restore e ~rules ~states;
  Alcotest.(check int) "rules restored" 16 (List.length (Pf_engine.export_rules e));
  Alcotest.(check int) "states restored" 1 (List.length (Pf_engine.export_states e))

(* {2 The sharded filter's partitioned recovery (Pf_srv + [owns])} *)

module Engine = Newt_sim.Engine
module Machine = Newt_hw.Machine
module Component = Newt_stack.Component
module Pf_srv = Newt_stack.Pf_srv

let make_pf_srv ?max_entries ?owns () =
  let e = Engine.create () in
  let m = Machine.create e in
  let core = Machine.add_dedicated_core m in
  let comp = Component.create m ~name:"pf" ~core () in
  let store = Hashtbl.create 8 in
  let srv =
    Pf_srv.create comp ~save:(Hashtbl.replace store)
      ~load:(Hashtbl.find_opt store) ?max_entries ?owns ()
  in
  (e, comp, srv)

(* Table order. Eviction picks the first of equally cold entries in
   the flow table's fold order, so that order decides which flows a
   capped, crash-recovered filter still tracks. It must stay the order
   of a generic [Hashtbl] of the same initial size: random inserts,
   refreshes, expiries, evictions (caps of 8 to 200 over 300 flows,
   many entries equally cold) and export/import round trips run
   against a mirror in one that applies the same eviction rule, and
   the tracked flows must match after every operation. A table that
   folds in another order (a [Hashtbl.Make] with a cheaper hash, say)
   fails it. *)
type ct_op =
  | Ct_add of int * bool  (** flow index, confirmed *)
  | Ct_touch of int
  | Ct_tick
  | Ct_expire of int  (** ttl *)
  | Ct_reimport

type ct_mirror = { mutable m_seen : int; mutable m_confirmed : bool }

let ct_universe =
  Array.init 300 (fun i ->
      {
        Conntrack.proto = (if i mod 7 = 0 then Conntrack.Ct_udp else Conntrack.Ct_tcp);
        local_ip = ip 10 0 (i mod 3) 1;
        local_port = 1024 + (i * 37 mod 500);
        remote_ip = ip 10 1 0 (i mod 5);
        remote_port = 80 + (i mod 4);
      })

let conntrack_matches_generic_table (cap, ops) =
  let ct = Conntrack.create ~max_entries:cap () in
  let m = Hashtbl.create 64 in
  let now = ref 0 in
  let evict () =
    let victim =
      Hashtbl.fold
        (fun f e acc ->
          match acc with
          | Some (_, best) when best.m_confirmed && not e.m_confirmed -> Some (f, e)
          | Some (_, best) when best.m_confirmed = e.m_confirmed && e.m_seen < best.m_seen ->
              Some (f, e)
          | Some _ -> acc
          | None -> Some (f, e))
        m None
    in
    Option.iter (fun (f, _) -> Hashtbl.remove m f) victim
  in
  let add ~now ~confirmed f =
    match Hashtbl.find_opt m f with
    | Some e ->
        e.m_seen <- now;
        if confirmed then e.m_confirmed <- true
    | None ->
        if Hashtbl.length m >= cap then evict ();
        Hashtbl.replace m f { m_seen = now; m_confirmed = confirmed }
  in
  let listing () =
    Hashtbl.fold (fun f e acc -> (f, e.m_seen, e.m_confirmed) :: acc) m [] |> List.sort compare
  in
  List.for_all
    (fun op ->
      (match op with
      | Ct_add (i, confirmed) ->
          Conntrack.insert ct ~now:!now ~confirmed ct_universe.(i);
          add ~now:!now ~confirmed ct_universe.(i)
      | Ct_touch i ->
          let f = ct_universe.(i) in
          ignore (Conntrack.seen ct ~now:!now f : bool);
          Option.iter (fun e -> e.m_seen <- !now) (Hashtbl.find_opt m f)
      | Ct_tick -> incr now
      | Ct_expire ttl ->
          ignore (Conntrack.expire ct ~now:!now ~ttl : int);
          Hashtbl.filter_map_inplace (fun _ e -> if !now - e.m_seen > ttl then None else Some e) m
      | Ct_reimport ->
          let saved = Conntrack.export ct in
          Conntrack.import ct saved;
          let mine = listing () in
          Hashtbl.reset m;
          List.iter (fun (f, seen, confirmed) -> add ~now:seen ~confirmed f) mine);
      Conntrack.export ct = listing ())
    ops

let test_conntrack_table_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"conntrack evicts in a generic table's fold order"
       QCheck2.Gen.(
         pair (int_range 8 200)
           (list_size (int_range 1 600)
              (frequency
                 [
                   (8, map2 (fun i c -> Ct_add (i, c)) (int_range 0 299) bool);
                   (2, map (fun i -> Ct_touch i) (int_range 0 299));
                   (2, pure Ct_tick);
                   (1, map (fun ttl -> Ct_expire ttl) (int_range 0 6));
                   (1, pure Ct_reimport);
                 ])))
       conntrack_matches_generic_table)

let test_pf_srv_partitioned_recovery () =
  (* A shard owning only even local ports: its restart must re-track
     exactly its own slice — from the snapshot (last-seen preserved, so
     idle entries are not resurrected as fresh) and from the transport
     query — and never a foreign shard's flows. *)
  let owns (f : Conntrack.flow) = f.Conntrack.local_port mod 2 = 0 in
  let e, comp, srv = make_pf_srv ~owns () in
  let ct = Pf_engine.conntrack (Pf_srv.engine_of srv) in
  Conntrack.insert ct ~now:5 (ct_flow ~lport:2 ());
  Conntrack.insert ct ~now:7 (ct_flow ~lport:4 ());
  (* A foreign flow that somehow reached this shard's table: it may die
     with the crash but must never come back here. *)
  Conntrack.insert ct ~now:9 (ct_flow ~lport:3 ());
  Pf_srv.repersist srv;
  Pf_srv.set_conntrack_sources srv
    ~tcp:(fun () -> [ ct_flow ~lport:6 (); ct_flow ~lport:5 () ])
    ~udp:(fun () -> []);
  ignore (Engine.schedule e 1000 (fun () -> Component.crash comp));
  ignore (Engine.schedule e 2000 (fun () -> Component.restart comp));
  Engine.run ~until:2500 e;
  Alcotest.(check int) "exactly the owned slice re-tracked" 3 (Conntrack.size ct);
  Alcotest.(check (option int)) "snapshot entry keeps its last-seen time"
    (Some 5)
    (Conntrack.last_seen ct (ct_flow ~lport:2 ()));
  Alcotest.(check (option int)) "second snapshot entry too" (Some 7)
    (Conntrack.last_seen ct (ct_flow ~lport:4 ()));
  Alcotest.(check bool) "foreign snapshot flow not re-tracked" false
    (Conntrack.mem ct (ct_flow ~lport:3 ()));
  Alcotest.(check (option int)) "transport flow (re)tracked as of now"
    (Some 2000)
    (Conntrack.last_seen ct (ct_flow ~lport:6 ()));
  Alcotest.(check bool) "foreign transport flow not re-tracked" false
    (Conntrack.mem ct (ct_flow ~lport:5 ()));
  (* The preserved clocks are what keeps restored-but-idle entries on
     schedule: both snapshot entries expire, the live one survives. *)
  Alcotest.(check int) "idle restored entries expire on schedule" 2
    (Conntrack.expire ct ~now:2400 ~ttl:1000)

let test_pf_srv_per_shard_cap () =
  (* The sharded deployment hands each of N shards [total/N] entries;
     the cap must bind per instance. *)
  let _, _, srv = make_pf_srv ~max_entries:4 () in
  let ct = Pf_engine.conntrack (Pf_srv.engine_of srv) in
  for i = 1 to 6 do
    Conntrack.insert ct ~now:i (ct_flow ~lport:(40000 + i) ())
  done;
  Alcotest.(check int) "per-shard cap honored" 4 (Conntrack.size ct);
  Alcotest.(check bool) "coldest entry evicted" false
    (Conntrack.mem ct (ct_flow ~lport:40001 ()));
  Alcotest.(check bool) "hottest entry kept" true
    (Conntrack.mem ct (ct_flow ~lport:40006 ()))

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_rule_pp_mentions_essentials () =
  let r =
    {
      Rule.block_all with
      Rule.proto = Rule.Match_udp;
      dst_port = Rule.Port 53;
      quick = true;
    }
  in
  let s = Format.asprintf "%a" Rule.pp r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %s" needle) true (contains s needle))
    [ "block"; "quick"; "udp"; "53" ]

let suite =
  [
    ("rule matching dimensions", `Quick, test_rule_matching);
    ("last matching rule wins", `Quick, test_last_match_wins);
    ("quick short-circuits", `Quick, test_quick_short_circuits);
    ("implicit default pass", `Quick, test_default_pass);
    ("keep-state bypasses the ruleset", `Quick, test_keep_state_bypasses_rules);
    ("state admits replies through a block", `Quick, test_state_admits_reply_direction);
    ("conntrack export/import (recovery)", `Quick, test_conntrack_export_import);
    ("conntrack idle entries expire", `Quick, test_conntrack_expiry);
    ("conntrack cap evicts the coldest entry", `Quick, test_conntrack_cap_evicts_oldest);
    ( "conntrack confirmation needs the handshake shape",
      `Quick,
      test_conntrack_handshake_confirmation );
    ( "conntrack eviction spares established flows under flood",
      `Quick,
      test_conntrack_flood_evicts_half_open_first );
    ( "conntrack evicts established only as a last resort",
      `Quick,
      test_conntrack_established_evicted_only_as_last_resort );
    ( "conntrack import keeps the expiry clock",
      `Quick,
      test_conntrack_import_keeps_expiry_clock );
    test_conntrack_table_order;
    ( "pf shard recovery re-tracks only its own slice",
      `Quick,
      test_pf_srv_partitioned_recovery );
    ("pf shard conntrack cap binds per instance", `Quick, test_pf_srv_per_shard_cap);
    ("classify parses tcp packets", `Quick, test_classify_tcp);
    ("classify rejects garbage", `Quick, test_classify_garbage);
    ("generated 1024-rule set behaves", `Quick, test_generated_ruleset_shape);
    ("restore rules + states", `Quick, test_restore);
    ("rule pretty-printer", `Quick, test_rule_pp_mentions_essentials);
  ]
