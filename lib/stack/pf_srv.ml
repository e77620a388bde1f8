module Machine = Newt_hw.Machine
module Costs = Newt_hw.Costs
module Sim_chan = Newt_channels.Sim_chan
module Pf_engine = Newt_pf.Pf_engine
module Rule = Newt_pf.Rule
module Conntrack = Newt_pf.Conntrack
module Stats = Newt_sim.Stats
module Time = Newt_sim.Time
module Engine = Newt_sim.Engine

type t = {
  comp : Component.t;
  proc : Proc.t;
  save : string -> string -> unit;
  load : string -> string option;
  engine : Pf_engine.t;
  owns : Conntrack.flow -> bool;
  mutable tcp_source : unit -> Conntrack.flow list;
  mutable udp_source : unit -> Conntrack.flow list;
  mutable verdicts : int;
  mutable blocked : int;
  mutable expired : int;
}

let now t = Newt_sim.Exec.now (Machine.exec (Component.machine t.comp))

let comp t = t.comp
let engine_of t = t.engine
let verdicts_issued t = t.verdicts
let blocked t = t.blocked
let conntrack_expired t = t.expired
let rule_count t = List.length (Pf_engine.rules t.engine)

let evicted_half_open t =
  Conntrack.evicted_half_open (Pf_engine.conntrack t.engine)

let evicted_established t =
  Conntrack.evicted_established (Pf_engine.conntrack t.engine)

(* Verdicts go back on the channel paired with the one the request
   arrived on, so several IP replicas can share one filter. *)
let handle_msg t ~reply_to msg =
  let c = Machine.costs (Component.machine t.comp) in
  match msg with
  | Msg.Filter_req { id; dir; pkt } -> (
      match Pf_engine.classify ~dir pkt with
      | None ->
          ( c.Costs.pf_base,
            fun () ->
              t.verdicts <- t.verdicts + 1;
              t.blocked <- t.blocked + 1;
              ignore (Proc.send t.proc reply_to (Msg.Filter_verdict { id; pass = false }))
          )
      | Some key ->
          let verdict = Pf_engine.filter t.engine ~now:(now t) key in
          let cost =
            c.Costs.pf_base
            + (verdict.Pf_engine.rules_walked * c.Costs.pf_rule_cost)
            + c.Costs.channel_marshal + c.Costs.channel_enqueue
          in
          ( cost,
            fun () ->
              t.verdicts <- t.verdicts + 1;
              let pass = verdict.Pf_engine.action = Rule.Pass in
              if not pass then t.blocked <- t.blocked + 1;
              ignore (Proc.send t.proc reply_to (Msg.Filter_verdict { id; pass })) ))
  | Msg.Tx_ip _ | Msg.Tx_ip_confirm _ | Msg.Filter_verdict _ | Msg.Drv_tx _
  | Msg.Drv_tx_confirm _ | Msg.Rx_frame _
  | Msg.Rx_deliver _ | Msg.Rx_done _
  | Msg.Sock_req _ | Msg.Sock_reply _ | Msg.Sock_event _ ->
      (0, fun () -> Stats.incr (Proc.stats t.proc) "invalid_msg")

let persist_conntrack t =
  t.save "conntrack" (Marshal.to_string (Pf_engine.export_states t.engine) [])

(* Sweep often enough that entries die within ~a quarter TTL of their
   deadline, but never busier than 4 Hz. *)
let sweep_period engine =
  max (Time.of_seconds 0.25) (Pf_engine.ttl engine / 4)

(* The periodic idle-timeout sweep, run from the server's own event
   loop. [Proc.after] chains are incarnation-guarded, so the chain
   dies with a crash; the restart hook re-arms it. Each sweep also
   snapshots the table (with last-seen times) to the storage server,
   so a restart does not resurrect idle entries as freshly-seen. *)
let rec arm_sweep t =
  ignore
    (Proc.after t.proc (sweep_period t.engine) ~cost:200 (fun () ->
         t.expired <- t.expired + Pf_engine.sweep t.engine ~now:(now t);
         persist_conntrack t;
         arm_sweep t)
      : unit -> unit)

let create comp ~save ~load ?max_entries ?(owns = fun _ -> true) () =
  let t =
    {
      comp;
      proc = Component.proc comp;
      save;
      load;
      engine = Pf_engine.create ?max_entries ();
      owns;
      tcp_source = (fun () -> []);
      udp_source = (fun () -> []);
      verdicts = 0;
      blocked = 0;
      expired = 0;
    }
  in
  (* The engine's state is what dies in a crash; rules come back from
     storage, live connections by querying the transport servers
     (Section V-D: "the filter can recover this dynamic state, for
     instance, by querying the TCP and UDP servers"). *)
  Component.on_crash comp (fun () ->
      Pf_engine.set_rules t.engine [];
      Conntrack.clear (Pf_engine.conntrack t.engine));
  Component.on_restart comp ~step:"restore-state" (fun ~fresh:_ ->
      let rules =
        match t.load "rules" with
        | Some blob -> (Marshal.from_string blob 0 : Rule.t list)
        | None -> [ Rule.pass_all ]
      in
      (* The snapshot carries last-seen times, so entries come back as
         close to expiry as they were; flows the transports still hold
         but the snapshot missed are (re)tracked as of now. *)
      let snapshot =
        match t.load "conntrack" with
        | Some blob ->
            (Marshal.from_string blob 0 : (Conntrack.flow * int * bool) list)
        | None -> []
      in
      (* A sharded filter restores only the partition it owns — both
         from the snapshot and from the transport servers' live tables
         — so a foreign shard's flows are never re-tracked here. *)
      Pf_engine.restore t.engine ~rules
        ~states:(List.filter (fun (f, _, _) -> t.owns f) snapshot);
      let ct = Pf_engine.conntrack t.engine in
      (* Transport servers only hold live connections, so re-tracked
         flows are established by definition. *)
      List.iter
        (fun f ->
          if t.owns f && not (Conntrack.mem ct f) then
            Conntrack.insert ct ~now:(now t) ~confirmed:true f)
        (t.tcp_source () @ t.udp_source ());
      arm_sweep t);
  arm_sweep t;
  t

let connect_ip t ~from_ip ~to_ip =
  Component.produce t.comp to_ip;
  Component.consume t.comp from_ip (handle_msg t ~reply_to:to_ip)

let set_rules t rules =
  Pf_engine.set_rules t.engine rules;
  t.save "rules" (Marshal.to_string rules [])

let set_conntrack_sources t ~tcp ~udp =
  t.tcp_source <- tcp;
  t.udp_source <- udp

let repersist t =
  t.save "rules" (Marshal.to_string (Pf_engine.rules t.engine) []);
  persist_conntrack t
