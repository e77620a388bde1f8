module Hook = Newt_channels.Hook
module Tcp = Newt_net.Tcp
module Addr = Newt_net.Addr

(* {1 The rule language}

   Two declarative tables, both first-match:

   - the {e segment table} judges every segment the engine transmits
     (or accepts) against the shadow state of its connection — may a
     PCB in this state emit a segment of this class at all? This is
     the paper's §V-B class made checkable: a server that answers
     traffic from the wrong protocol state.

   - the {e transition relation} judges every state change the engine
     reports — is (from, cause, to) an RFC-793 edge, or one of the
     paper's Table I crash edges?

   Both tables are data, so the static lint below can prove them
   total and deterministic before a single packet flows. *)

type seg_class = Syn | Syn_ack | Fin | Rst | Ack | Data
type dir = Tx | Rx

let all_states =
  [
    Tcp.Listen;
    Tcp.Syn_sent;
    Tcp.Syn_received;
    Tcp.Established;
    Tcp.Fin_wait_1;
    Tcp.Fin_wait_2;
    Tcp.Close_wait;
    Tcp.Closing;
    Tcp.Last_ack;
    Tcp.Time_wait;
    Tcp.Closed;
  ]

let all_classes = [ Syn; Syn_ack; Fin; Rst; Ack; Data ]
let all_dirs = [ Tx; Rx ]

let class_name = function
  | Syn -> "SYN"
  | Syn_ack -> "SYN-ACK"
  | Fin -> "FIN"
  | Rst -> "RST"
  | Ack -> "ACK"
  | Data -> "data"

let dir_name = function Tx -> "tx" | Rx -> "rx"

let state_name s = Format.asprintf "%a" Tcp.pp_state s

(* Flag precedence mirrors what the segment {e does} to sequence
   space: RST overrides everything, then the handshake flags, then
   FIN (which also consumes a sequence number even when data rides
   along), then payload, and a bare ACK last. *)
let classify (f : Hook.tcp_flags) =
  if f.Hook.rst then Rst
  else if f.Hook.syn && f.Hook.ack then Syn_ack
  else if f.Hook.syn then Syn
  else if f.Hook.fin then Fin
  else if f.Hook.data then Data
  else Ack

type verdict = Allow | Deny of string

type seg_rule = {
  states : Tcp.state list;  (** [] = any state *)
  classes : seg_class list;  (** [] = any class *)
  dirs : dir list;  (** [] = either direction *)
  verdict : verdict;
  why : string;
}

(* The segment table. Order is load-bearing: each Allow narrows what
   the Deny wildcard behind it condemns. Shadow states follow the
   engine's PCB states; a connection the checker has never seen (or
   whose PCB was torn down) is Closed — which is exactly why rule 1
   comes first: RST is the one thing a Closed endpoint must still
   say (Table I: peers of a crashed server are refused, not
   ignored). *)
let seg_rules : seg_rule list =
  [
    {
      states = [];
      classes = [ Rst ];
      dirs = [ Tx ];
      verdict = Allow;
      why =
        "RST is the universal refusal — answering RST from Closed is Table \
         I's required post-crash behaviour";
    };
    {
      states = [ Tcp.Syn_sent ];
      classes = [ Syn ];
      dirs = [ Tx ];
      verdict = Allow;
      why = "active open and its retransmissions";
    };
    {
      states = [];
      classes = [ Syn ];
      dirs = [ Tx ];
      verdict = Deny "syn-outside-syn-sent";
      why = "only an active opener may send SYN";
    };
    {
      states = [ Tcp.Syn_received ];
      classes = [ Syn_ack ];
      dirs = [ Tx ];
      verdict = Allow;
      why = "passive-open reply and its retransmissions";
    };
    {
      states = [];
      classes = [ Syn_ack ];
      dirs = [ Tx ];
      verdict = Deny "syn-ack-outside-syn-received";
      why = "only a passive opener may send SYN-ACK";
    };
    {
      states =
        [
          Tcp.Established;
          Tcp.Close_wait;
          Tcp.Fin_wait_1;
          Tcp.Closing;
          Tcp.Last_ack;
        ];
      classes = [ Fin ];
      dirs = [ Tx ];
      verdict = Allow;
      why =
        "FIN emission precedes the Fin_wait_1/Last_ack transition; the later \
         states retransmit it";
    };
    {
      states = [];
      classes = [ Fin ];
      dirs = [ Tx ];
      verdict = Deny "fin-from-wrong-state";
      why = "FIN before the connection is synchronized (or after it is gone)";
    };
    {
      states =
        [
          Tcp.Established;
          Tcp.Close_wait;
          Tcp.Fin_wait_1;
          Tcp.Closing;
          Tcp.Last_ack;
        ];
      classes = [ Data ];
      dirs = [ Tx ];
      verdict = Allow;
      why = "data flows while the send direction is open (or retransmits)";
    };
    {
      states = [];
      classes = [ Data ];
      dirs = [ Tx ];
      verdict = Deny "data-from-wrong-state";
      why = "payload from an unsynchronized or closed connection";
    };
    {
      states =
        [
          Tcp.Established;
          Tcp.Fin_wait_1;
          Tcp.Fin_wait_2;
          Tcp.Close_wait;
          Tcp.Closing;
          Tcp.Last_ack;
          Tcp.Time_wait;
        ];
      classes = [ Ack ];
      dirs = [ Tx ];
      verdict = Allow;
      why = "bare ACKs belong to synchronized states (and Time_wait re-ACKs)";
    };
    {
      states = [];
      classes = [ Ack ];
      dirs = [ Tx ];
      verdict = Deny "ack-from-wrong-state";
      why =
        "a bare ACK from Closed/Listen/handshake states — the §V-B bug: the \
         endpoint answers as if the connection lived";
    };
    {
      states = [];
      classes = [];
      dirs = [ Rx ];
      verdict = Allow;
      why =
        "the peer may deliver anything; conformance is judged on our own \
         transmissions and the transitions they cause";
    };
  ]

let seg_rule_count = List.length seg_rules

let seg_match st cls d r =
  (r.states = [] || List.mem st r.states)
  && (r.classes = [] || List.mem cls r.classes)
  && (r.dirs = [] || List.mem d r.dirs)

let first_match rules st cls d =
  let rec go i = function
    | [] -> None
    | r :: rest -> if seg_match st cls d r then Some (i, r) else go (i + 1) rest
  in
  go 0 rules

(* {2 The transition relation}

   Causes are coarser than segments on the receive side: the segment
   that completes a passive open classifies as ACK, data or FIN
   depending on what rides along with the acknowledgment, so
   Rx-driven edges admit the classes that can legitimately carry
   them. The edges the sabotage modes forge — Closed→Established by
   API with no handshake, and any transition surviving a crash —
   have no entry here and are flagged. *)

type cause = Api | Timer | Crash | Rx_seg of seg_class | Tx_seg of seg_class

let cause_name = function
  | Api -> "api"
  | Timer -> "timer"
  | Crash -> "crash"
  | Rx_seg c -> "rx " ^ class_name c
  | Tx_seg c -> "tx " ^ class_name c

type trans_rule = {
  from_ : Tcp.state list;  (** [] = any state *)
  causes : cause list;
  to_ : Tcp.state;
}

let rx_completing = [ Rx_seg Ack; Rx_seg Data; Rx_seg Fin ]

let transitions : trans_rule list =
  [
    { from_ = [ Tcp.Closed ]; causes = [ Api ]; to_ = Tcp.Syn_sent };
    { from_ = [ Tcp.Closed ]; causes = [ Rx_seg Syn ]; to_ = Tcp.Syn_received };
    {
      from_ = [ Tcp.Syn_sent ];
      causes = [ Rx_seg Syn_ack ];
      to_ = Tcp.Established;
    };
    (* Simultaneous open. *)
    { from_ = [ Tcp.Syn_sent ]; causes = [ Rx_seg Syn ]; to_ = Tcp.Syn_received };
    {
      from_ = [ Tcp.Syn_sent ];
      causes = [ Rx_seg Rst; Api; Timer ];
      to_ = Tcp.Closed;
    };
    {
      from_ = [ Tcp.Syn_received ];
      causes = rx_completing;
      to_ = Tcp.Established;
    };
    {
      from_ = [ Tcp.Syn_received ];
      causes = [ Rx_seg Rst; Api; Timer ];
      to_ = Tcp.Closed;
    };
    { from_ = [ Tcp.Established ]; causes = [ Tx_seg Fin ]; to_ = Tcp.Fin_wait_1 };
    { from_ = [ Tcp.Established ]; causes = [ Rx_seg Fin ]; to_ = Tcp.Close_wait };
    {
      from_ = [ Tcp.Established ];
      causes = [ Rx_seg Rst; Timer; Api ];
      to_ = Tcp.Closed;
    };
    { from_ = [ Tcp.Fin_wait_1 ]; causes = rx_completing; to_ = Tcp.Fin_wait_2 };
    (* Simultaneous close. *)
    { from_ = [ Tcp.Fin_wait_1 ]; causes = [ Rx_seg Fin ]; to_ = Tcp.Closing };
    {
      from_ = [ Tcp.Fin_wait_1 ];
      causes = [ Rx_seg Rst; Timer; Api ];
      to_ = Tcp.Closed;
    };
    { from_ = [ Tcp.Fin_wait_2 ]; causes = rx_completing; to_ = Tcp.Time_wait };
    (* No Timer exit from Fin_wait_2: the retransmission timer stopped
       when the FIN was acknowledged; only a peer RST or an API abort
       can kill the half-closed wait. *)
    {
      from_ = [ Tcp.Fin_wait_2 ];
      causes = [ Rx_seg Rst; Api ];
      to_ = Tcp.Closed;
    };
    { from_ = [ Tcp.Closing ]; causes = rx_completing; to_ = Tcp.Time_wait };
    {
      from_ = [ Tcp.Closing ];
      causes = [ Rx_seg Rst; Timer; Api ];
      to_ = Tcp.Closed;
    };
    { from_ = [ Tcp.Close_wait ]; causes = [ Tx_seg Fin ]; to_ = Tcp.Last_ack };
    {
      from_ = [ Tcp.Close_wait ];
      causes = [ Rx_seg Rst; Timer; Api ];
      to_ = Tcp.Closed;
    };
    {
      from_ = [ Tcp.Last_ack ];
      causes = rx_completing @ [ Rx_seg Rst; Timer; Api ];
      to_ = Tcp.Closed;
    };
    {
      from_ = [ Tcp.Time_wait ];
      causes = [ Timer; Rx_seg Rst; Api ];
      to_ = Tcp.Closed;
    };
    (* Table I: a crash closes everything, from anywhere. *)
    { from_ = []; causes = [ Crash ]; to_ = Tcp.Closed };
  ]

let trans_allowed ~from_ ~cause ~to_ =
  List.exists
    (fun r ->
      (r.from_ = [] || List.mem from_ r.from_)
      && List.mem cause r.causes && r.to_ = to_)
    transitions

let describe_rules () =
  List.mapi
    (fun i r ->
      let states =
        match r.states with
        | [] -> "any"
        | ss -> String.concat "|" (List.map state_name ss)
      in
      let classes =
        match r.classes with
        | [] -> "any"
        | cs -> String.concat "|" (List.map class_name cs)
      in
      let dirs =
        match r.dirs with
        | [] -> "tx|rx"
        | ds -> String.concat "|" (List.map dir_name ds)
      in
      let verdict =
        match r.verdict with Allow -> "allow" | Deny c -> "DENY " ^ c
      in
      Printf.sprintf "%2d. %s %s in %s: %s — %s" i dirs classes states verdict
        r.why)
    seg_rules

let describe_transitions () =
  List.map
    (fun r ->
      let from_ =
        match r.from_ with
        | [] -> "any"
        | ss -> String.concat "|" (List.map state_name ss)
      in
      Printf.sprintf "%s --[%s]--> %s" from_
        (String.concat ", " (List.map cause_name r.causes))
        (state_name r.to_))
    transitions

(* {1 The static lint}

   Proves the tables themselves before trusting their verdicts:

   - {e totality}: every (state, class, direction) cell has a first
     match — no segment the engine can emit escapes judgment;
   - {e determinism / no dead rules}: every rule is the first match
     of at least one cell. A rule no cell reaches is shadowed by the
     rules above it — either redundant or, worse, an Allow that a
     broader Deny silently overrides;
   - {e liveness of the transition relation}: every state the
     relation can enter has an exit edge, and every state except the
     never-entered Listen is reachable from Closed — no transition
     into a dead end. *)

let lint_rules ?(drop = -1) rules =
  let rules = List.filteri (fun i _ -> i <> drop) rules in
  let violations = ref [] in
  let flag check subject detail =
    violations :=
      { Report.check; subject; culprit = "tcpfsm rule table"; detail }
      :: !violations
  in
  let cells = ref 0 in
  let hit = Array.make (List.length rules) 0 in
  List.iter
    (fun st ->
      List.iter
        (fun cls ->
          List.iter
            (fun d ->
              incr cells;
              match first_match rules st cls d with
              | Some (i, _) -> hit.(i) <- hit.(i) + 1
              | None ->
                  flag "table-totality"
                    (Printf.sprintf "(%s, %s, %s)" (state_name st)
                       (class_name cls) (dir_name d))
                    "no rule matches this cell — the checker would have no \
                     verdict for a segment the engine can emit")
            all_dirs)
        all_classes)
    all_states;
  List.iteri
    (fun i r ->
      if hit.(i) = 0 then
        flag "dead-rule"
          (Printf.sprintf "rule %d (%s)" i r.why)
          "never the first match of any cell — shadowed by the rules above \
           it")
    rules;
  (!cells, Array.fold_left (fun a n -> a + if n > 0 then 1 else 0) 0 hit,
   !violations)

let lint_transitions () =
  let violations = ref [] in
  let flag check subject detail =
    violations :=
      { Report.check; subject; culprit = "tcpfsm transition relation"; detail }
      :: !violations
  in
  (* Exit coverage: every entered state can be left. *)
  let entered =
    List.sort_uniq compare (List.map (fun r -> r.to_) transitions)
  in
  List.iter
    (fun st ->
      if st = Tcp.Listen then
        flag "listen-entered" (state_name st)
          "the relation enters Listen, a state PCBs never hold"
      else
        let has_exit =
          List.exists
            (fun r -> r.from_ = [] || List.mem st r.from_)
            transitions
        in
        if not has_exit then
          flag "no-exit" (state_name st)
            "the relation can enter this state but never leave it")
    entered;
  (* Reachability from Closed: the relation must span the whole
     machine, or the checker would reject legitimate runs. *)
  let reachable = Hashtbl.create 16 in
  Hashtbl.replace reachable Tcp.Closed ();
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        let from_ok =
          r.from_ = [] || List.exists (Hashtbl.mem reachable) r.from_
        in
        if from_ok && not (Hashtbl.mem reachable r.to_) then begin
          Hashtbl.replace reachable r.to_ ();
          changed := true
        end)
      transitions
  done;
  List.iter
    (fun st ->
      if st <> Tcp.Listen && not (Hashtbl.mem reachable st) then
        flag "unreachable-state" (state_name st)
          "no path from Closed reaches this state — the relation is missing \
           edges")
    all_states;
  (List.length entered, Hashtbl.length reachable, !violations)

let lint_table () =
  let cells, live_rules, seg_viols = lint_rules seg_rules in
  let entered, reachable, trans_viols = lint_transitions () in
  {
    Report.title = "tcp-fsm rule-table lint";
    checks =
      [
        ("cells-covered", cells);
        ("live-rules", live_rules);
        ("transition-edges", List.length transitions);
        ("entered-states-with-exit", entered);
        ("reachable-states", reachable);
      ];
    violations = List.rev (trans_viols @ seg_viols);
  }

let lint_dropping i =
  let cells, live_rules, seg_viols = lint_rules ~drop:i seg_rules in
  {
    Report.title = Printf.sprintf "tcp-fsm lint, rule %d removed" i;
    checks = [ ("cells-covered", cells); ("live-rules", live_rules) ];
    violations = List.rev seg_viols;
  }

(* {1 The runtime checker}

   A shadow PCB table keyed by the engine-local 4-tuple. Absent means
   Closed; a transition to Closed retires the entry, so the table is
   bounded by the number of live connections, not the number ever
   seen. On a segment event the shadow state picks the segment
   table's verdict; on a state-change event the claimed origin is
   checked against the shadow, the edge against the relation, and the
   shadow follows the engine's claim either way (one bug, one
   violation — no cascade).

   The native runtime delivers events from two domains (the TCP
   server's and the peer host's), so every entry point takes the
   mutex; the sim path takes it too (uncontended Mutex.lock is a
   handful of nanoseconds and keeps one code path). *)

type key = int32 * int * int32 * int

let shadow : (key, Tcp.state) Hashtbl.t = Hashtbl.create 1024
let viols : Report.violation list ref = ref []
let seg_events = ref 0
let trans_events = ref 0
let lock = Mutex.create ()
let token : Hook.token option ref = ref None

(* Model-cycle cost of one checker step (hash probe + first-match
   scan), for the overhead accounting next to the sanitizer's 40 and
   the protocol checker's 30. *)
let cycles_per_event = 25

let ring_size = 64
let ring : string option array = Array.make ring_size None
let ring_next = ref 0

let remember line =
  ring.(!ring_next mod ring_size) <- Some line;
  incr ring_next

let trace () =
  let n = min !ring_next ring_size in
  let start = !ring_next - n in
  List.filter_map
    (fun i -> ring.((start + i) mod ring_size))
    (List.init n Fun.id)

let conn_str (lip, lport, rip, rport) =
  Printf.sprintf "%s:%d <-> %s:%d"
    (Addr.Ipv4.to_string (Addr.Ipv4.of_int32 lip))
    lport
    (Addr.Ipv4.to_string (Addr.Ipv4.of_int32 rip))
    rport

let flags_str (f : Hook.tcp_flags) =
  String.concat ""
    [
      (if f.Hook.syn then "S" else "");
      (if f.Hook.ack then "A" else "");
      (if f.Hook.fin then "F" else "");
      (if f.Hook.rst then "R" else "");
      (if f.Hook.data then "D" else "");
    ]

let state_of_key k =
  match Hashtbl.find_opt shadow k with Some s -> s | None -> Tcp.Closed

let record check key detail =
  viols :=
    {
      Report.check;
      subject = conn_str key;
      culprit = "tcp-engine";
      detail;
    }
    :: !viols

let on_seg key ~d flags =
  incr seg_events;
  let cls = classify flags in
  let st = state_of_key key in
  remember
    (Printf.sprintf "%s %s %s [%s] in %s" (dir_name d) (class_name cls)
       (conn_str key) (flags_str flags) (state_name st));
  match first_match seg_rules st cls d with
  | Some (_, { verdict = Allow; _ }) -> ()
  | Some (i, { verdict = Deny check; why; _ }) ->
      record check key
        (Printf.sprintf
           "%s %s segment while the connection is %s (rule %d: %s)"
           (dir_name d) (class_name cls) (state_name st) i why)
  | None ->
      (* Unreachable once the lint passes; flagged rather than assumed. *)
      record "table-totality" key
        (Printf.sprintf "no rule for (%s, %s, %s)" (state_name st)
           (class_name cls) (dir_name d))

let on_transition key ~from_s ~to_s ~cause =
  incr trans_events;
  let from_claim = Tcp.state_of_code from_s in
  let to_ = Tcp.state_of_code to_s in
  let shadow_st = state_of_key key in
  remember
    (Printf.sprintf "%s: %s -> %s (%s)" (conn_str key) (state_name from_claim)
       (state_name to_) (cause_name cause));
  if shadow_st <> from_claim then
    record "transition-origin-mismatch" key
      (Printf.sprintf
         "engine claims the transition left %s but the observed history put \
          the connection in %s"
         (state_name from_claim) (state_name shadow_st));
  if not (trans_allowed ~from_:from_claim ~cause ~to_) then
    record "illegal-transition" key
      (Printf.sprintf "%s --[%s]--> %s matches no RFC-793/Table-I edge"
         (state_name from_claim) (cause_name cause) (state_name to_));
  (* Follow the engine's claim even on violation: one bug, one
     violation, no cascade. *)
  if to_ = Tcp.Closed then Hashtbl.remove shadow key
  else Hashtbl.replace shadow key to_

let cause_of_hook = function
  | Hook.T_api -> Api
  | Hook.T_timer -> Timer
  | Hook.T_crash -> Crash
  | Hook.T_rx f -> Rx_seg (classify f)
  | Hook.T_tx f -> Tx_seg (classify f)

let on_event ev =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match ev with
      | Hook.T_seg_tx { lip; lport; rip; rport; flags } ->
          on_seg (lip, lport, rip, rport) ~d:Tx flags
      | Hook.T_seg_rx { lip; lport; rip; rport; flags } ->
          on_seg (lip, lport, rip, rport) ~d:Rx flags
      | Hook.T_state_change { lip; lport; rip; rport; from_s; to_s; cause } ->
          on_transition (lip, lport, rip, rport) ~from_s ~to_s
            ~cause:(cause_of_hook cause))

let clear () =
  Hashtbl.reset shadow;
  viols := [];
  seg_events := 0;
  trans_events := 0;
  Array.fill ring 0 ring_size None;
  ring_next := 0

let install () =
  if !token = None then begin
    clear ();
    token := Some (Hook.tcp_add on_event)
  end

let uninstall () =
  Option.iter Hook.remove !token;
  token := None

let active () = !token <> None
let reset () = clear ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let violations () = with_lock (fun () -> List.rev !viols)
let segment_count () = !seg_events
let transition_count () = !trans_events
let event_count () = !seg_events + !trans_events
let overhead_cycles () = event_count () * cycles_per_event
let tracked_connections () = with_lock (fun () -> Hashtbl.length shadow)

let state_of ~lip ~lport ~rip ~rport =
  with_lock (fun () -> state_of_key (lip, lport, rip, rport))

(* {2 The conntrack cross-check}

   Two independent definitions of "this connection completed its
   handshake" exist in the stack: the packet filter's conntrack
   confirmation bit (promoted on the originator-reply-originator
   shape) and this checker's shadow FSM (Established on the
   handshake-completing ACK). They must agree in one direction: an
   entry must not be confirmed while the checker still has the PCB in
   Syn_received — a confirmed half-open entry is exactly the flood
   state the LRU's eviction policy exists to keep out of the
   protected class. Connections the checker never observed (sampled
   out, or conntrack entries re-imported across a crash) are
   skipped. *)

let crosscheck_conntrack ~where ct =
  with_lock (fun () ->
      List.iter
        (fun ((flow : Newt_pf.Conntrack.flow), _last_seen, confirmed) ->
          match flow.Newt_pf.Conntrack.proto with
          | Newt_pf.Conntrack.Ct_udp -> ()
          | Newt_pf.Conntrack.Ct_tcp ->
              let key =
                ( Addr.Ipv4.to_int32 flow.Newt_pf.Conntrack.local_ip,
                  flow.Newt_pf.Conntrack.local_port,
                  Addr.Ipv4.to_int32 flow.Newt_pf.Conntrack.remote_ip,
                  flow.Newt_pf.Conntrack.remote_port )
              in
              if confirmed then
                match Hashtbl.find_opt shadow key with
                | Some Tcp.Syn_received ->
                    record "conntrack-confirmed-half-open" key
                      (Printf.sprintf
                         "%s: conntrack marks the entry confirmed while the \
                          FSM checker still has the PCB in SYN_RCVD — the \
                          handshake-shape and state-machine definitions of \
                          'established' have drifted"
                         where)
                | Some _ | None -> ())
        (Newt_pf.Conntrack.export ct))

let report ?(title = "tcp-fsm conformance") () =
  with_lock (fun () ->
      {
        Report.title;
        checks =
          [
            ("segments", !seg_events);
            ("transitions", !trans_events);
            ("tracked-connections", Hashtbl.length shadow);
          ];
        violations = List.rev !viols;
      })

(* Mcheck-shaped machine-readable verdict: same fields the recovery
   model checker emits per crash point, so the CI greps
   ("trace":[...]) work across checkers. *)
let verdict_json () =
  with_lock (fun () ->
      let vs =
        List.rev_map
          (fun (v : Report.violation) ->
            Printf.sprintf
              {|{"check":"%s","subject":"%s","culprit":"%s","detail":"%s"}|}
              (Report.json_escape v.Report.check)
              (Report.json_escape v.Report.subject)
              (Report.json_escape v.Report.culprit)
              (Report.json_escape v.Report.detail))
          !viols
        |> List.rev
      in
      let trace_lines =
        let n = min !ring_next ring_size in
        let start = !ring_next - n in
        List.filter_map
          (fun i -> ring.((start + i) mod ring_size))
          (List.init n Fun.id)
        |> List.map (fun l -> "\"" ^ Report.json_escape l ^ "\"")
      in
      Printf.sprintf
        {|{"component":"tcp-fsm","ok":%b,"segments":%d,"transitions":%d,"tracked":%d,"violations":[%s],"trace":[%s]}|}
        (!viols = []) !seg_events !trans_events (Hashtbl.length shadow)
        (String.concat "," vs)
        (String.concat "," trace_lines))
