(* The command-line driver: run any experiment of the paper's
   evaluation and print it in the paper's format. *)

module E = Newt_core.Experiments
module F = Newt_reliability.Fault_inject
module C = Newt_stack.Capacity
module V = Newt_verify

let print_table2 costs =
  ignore costs;
  print_endline "Table II — peak performance of outgoing TCP in various setups";
  print_endline "--------------------------------------------------------------";
  Printf.printf "%-62s %7s %9s\n" "configuration" "paper" "measured";
  List.iter
    (fun (r : E.table2_row) ->
      Printf.printf "%-62s %7s %6.2f Gbps   [bottleneck: %s]\n" r.E.label
        r.E.paper_gbps r.E.measured_gbps r.E.bottleneck)
    (E.table_ii ());
  print_newline ()

let print_trace name (t : E.crash_trace) ~paper_note =
  Printf.printf "%s\n" name;
  print_endline (String.make (String.length name) '-');
  Printf.printf "(%s)\n" paper_note;
  Array.iter
    (fun (time, mbps) ->
      let bar = String.make (int_of_float (mbps /. 20.0)) '#' in
      Printf.printf "%6.1fs %8.1f Mbps |%s\n" time mbps bar)
    t.E.points;
  Printf.printf
    "duplicates seen by receiver: %d; sender retransmits: %d; segments lost: %d; restarts: %d\n\n"
    t.E.duplicate_segments t.E.sender_retransmits t.E.lost_segments
    t.E.component_restarts

(* Run [f] with the pool-ownership sanitizer watching, then print its
   verdict.  Any violation fails the invocation so CI can gate on it. *)
let with_sanitizer ?(quiet = false) enabled f =
  if not enabled then f ()
  else begin
    V.Sanitizer.install ();
    Fun.protect ~finally:V.Sanitizer.uninstall f;
    let report = V.Sanitizer.report ~title:"pool-ownership sanitizer" () in
    if not quiet then begin
      print_string (V.Report.to_string report);
      print_newline ()
    end;
    if not (V.Report.ok report) then exit 1
  end

(* Run [f] with the dynamic channel-protocol checker replaying the
   request/confirm contract, then print its verdict.  [drained] closes
   the trace strictly (a quiesced tail: open obligations are
   violations).  Under --verify-continuous the per-run aggregation has
   already absorbed and reset the checker's state, so this outer report
   only carries whatever the aggregator did not claim. *)
let with_protocol ?(quiet = false) ?(drained = false) enabled f =
  if not enabled then f ()
  else begin
    V.Protocol.install ();
    Fun.protect ~finally:V.Protocol.uninstall f;
    V.Protocol.finish ~drained ();
    let report = V.Protocol.report ~title:"channel-protocol checker" () in
    if not quiet then begin
      print_string (V.Report.to_string report);
      print_newline ()
    end;
    if not (V.Report.ok report) then exit 1
  end

(* Run [f] with the TCP conformance checker riding the simulator's TCP
   hook chain, then print its verdict.  Under --verify-continuous the
   per-run aggregation absorbs and resets the checker's state, so this
   outer report only carries whatever the aggregator did not claim. *)
let with_tcpfsm ?(quiet = false) enabled f =
  if not enabled then f ()
  else begin
    V.Tcpfsm.install ();
    Fun.protect ~finally:V.Tcpfsm.uninstall f;
    let report = V.Tcpfsm.report ~title:"tcp-fsm conformance checker" () in
    if not quiet then begin
      print_string (V.Report.to_string report);
      print_newline ()
    end;
    if not (V.Report.ok report) then exit 1
  end

(* Run [f] with the verification hooks sampled one subject in [n]
   (pool slots, request ids, native locations, TCP connections;
   clock-critical events are never sampled out), restoring full
   fidelity after. *)
let with_sample n f =
  if n <= 1 then f ()
  else begin
    Newt_channels.Hook.set_sample n;
    Fun.protect ~finally:(fun () -> Newt_channels.Hook.set_sample 1) f
  end

(* Run [f] with a continuous-verification aggregator when requested:
   the experiment re-runs the static checker after every reincarnation
   and leak-checks each quiesced run tail.  Any violation or leak fails
   the invocation. *)
let with_continuous ?(quiet = false) enabled f =
  if not enabled then f None
  else begin
    let v = V.Continuous.create () in
    f (Some v);
    if not quiet then begin
      print_string
        (V.Report.to_string (V.Continuous.report ~title:"continuous verification" v));
      let c = V.Continuous.totals v in
      Printf.printf
        "re-checks: %d over %d run(s); static violations: %d; sanitizer violations: \
         %d; leaks: %d; stale derefs: %d; hook events: %d (~%d model cycles \
         overhead)\n\n"
        c.V.Continuous.re_checks
        (List.length (V.Continuous.runs v))
        c.V.Continuous.static_violations c.V.Continuous.sanitizer_violations
        c.V.Continuous.leaks c.V.Continuous.stale_derefs c.V.Continuous.hook_events
        c.V.Continuous.hook_overhead_cycles
    end;
    if not (V.Continuous.ok v) then exit 1
  end

let print_fig4 seed sanitize protocol verify_continuous tcp_fsm sample =
  with_sample sample (fun () ->
      with_tcpfsm tcp_fsm (fun () ->
          with_sanitizer sanitize (fun () ->
              with_protocol ~drained:true protocol (fun () ->
                  with_continuous verify_continuous (fun verify ->
                      let t = E.figure_ip_crash ~seed ?verify () in
                      print_trace "Figure 4 — bitrate across an IP server crash (at t=4s)" t
                        ~paper_note:
                          "paper: gap of ~2s while the link resets, one retransmission, full recovery")))))

let print_fig5 seed sanitize protocol verify_continuous tcp_fsm sample =
  with_sample sample (fun () ->
      with_tcpfsm tcp_fsm (fun () ->
          with_sanitizer sanitize (fun () ->
              with_protocol ~drained:true protocol (fun () ->
                  with_continuous verify_continuous (fun verify ->
                      let t = E.figure_pf_crash ~seed ?verify () in
                      print_trace "Figure 5 — bitrate across two packet filter crashes (t=6s, t=12s)" t
                        ~paper_note:
                          "paper: crashes almost not noticeable, no packets lost, 1024 rules recovered")))))

let campaign_json runs (c : E.campaign) verify =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"runs\":%d,\"crashes\":{\"tcp\":%d,\"udp\":%d,\"ip\":%d,\"pf\":%d,\"drv\":%d},"
       runs c.E.crashes_tcp c.E.crashes_udp c.E.crashes_ip c.E.crashes_pf
       c.E.crashes_drv);
  Buffer.add_string b
    (Printf.sprintf
       "\"consequences\":{\"fully_transparent\":%d,\"reachable\":%d,\"manually_fixed\":%d,\"broke_tcp\":%d,\"transparent_udp\":%d,\"reboots\":%d}"
       c.E.fully_transparent c.E.reachable c.E.manually_fixed c.E.broke_tcp
       c.E.transparent_udp c.E.reboots);
  Buffer.add_string b
    (Printf.sprintf ",\"pf_shards\":[%s]"
       (String.concat ","
          (Array.to_list
             (Array.map
                (fun (p : E.pf_shard_totals) ->
                  Printf.sprintf
                    "{\"shard\":%d,\"verdicts\":%d,\"blocked\":%d,\"expired\":%d}"
                    p.E.pf_shard p.E.verdicts p.E.blocked_packets
                    p.E.conntrack_expired)
                c.E.pf_counters))));
  (match verify with
  | Some v ->
      Buffer.add_char b ',';
      Buffer.add_string b (V.Continuous.json v)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let print_campaign_tables runs c =
  print_endline "Table III — distribution of crashes in the stack";
  print_endline "-------------------------------------------------";
  Printf.printf "%-8s %6s %6s\n" "" "paper" "ours";
  Printf.printf "%-8s %6d %6d\n" "Total" 100 runs;
  Printf.printf "%-8s %6d %6d\n" "TCP" 25 c.E.crashes_tcp;
  Printf.printf "%-8s %6d %6d\n" "UDP" 10 c.E.crashes_udp;
  Printf.printf "%-8s %6d %6d\n" "IP" 24 c.E.crashes_ip;
  Printf.printf "%-8s %6d %6d\n" "PF" 25 c.E.crashes_pf;
  Printf.printf "%-8s %6d %6d\n" "Driver" 16 c.E.crashes_drv;
  print_newline ();
  print_endline "Table IV — consequences of crashes";
  print_endline "-----------------------------------";
  Printf.printf "%-42s %8s %6s\n" "" "paper" "ours";
  Printf.printf "%-42s %8d %6d\n" "Fully transparent crashes" 70 c.E.fully_transparent;
  Printf.printf "%-42s %5d+%-2d %4d+%-2d\n" "Reachable from outside (auto + manual)" 90 6
    c.E.reachable c.E.manually_fixed;
  Printf.printf "%-42s %8d %6d\n" "Crash broke TCP connections" 30 c.E.broke_tcp;
  Printf.printf "%-42s %8d %6d\n" "Transparent to UDP" 95 c.E.transparent_udp;
  Printf.printf "%-42s %8d %6d\n" "Reboot necessary" 3 c.E.reboots;
  if Array.length c.E.pf_counters > 1 then begin
    print_newline ();
    print_endline "Per-PF-shard verdicts over the campaign";
    Array.iter
      (fun (p : E.pf_shard_totals) ->
        Printf.printf "  pf shard %d: %d verdicts, %d blocked, %d expired\n"
          p.E.pf_shard p.E.verdicts p.E.blocked_packets p.E.conntrack_expired)
      c.E.pf_counters
  end;
  print_newline ()

let print_campaign runs seed sanitize protocol verify_continuous break_recovery
    pf_shards json sample =
  with_sample sample @@ fun () ->
  with_sanitizer ~quiet:json sanitize @@ fun () ->
  (* Not [~drained]: a campaign world can end frozen (reboot cases), so
     only hard violations gate here; the per-run obligation accounting
     happens inside --verify-continuous, which skips frozen runs. *)
  with_protocol ~quiet:json protocol @@ fun () ->
  with_continuous ~quiet:json verify_continuous @@ fun verify ->
  let c = E.fault_campaign ~runs ~seed ?verify ?break_recovery ~pf_shards () in
  if json then print_endline (campaign_json runs c verify)
  else print_campaign_tables runs c

let print_crosscheck () =
  print_endline "Cross-validation — packet level vs capacity model";
  print_endline "---------------------------------------------------";
  let r = E.split_peak_event_sim () in
  Printf.printf "split stack:   %.2f Gbps (model %.2f); tcp %.0f%%, ip %.0f%%, pf %.0f%%, drv %.0f%%\n"
    r.E.goodput_gbps r.E.capacity_prediction_gbps (100. *. r.E.tcp_util)
    (100. *. r.E.ip_util) (100. *. r.E.pf_util) (100. *. r.E.drv_util);
  let single_gbps, single_util = E.single_server_event_sim () in
  Printf.printf "single server: %.2f Gbps (core %.0f%%)\n" single_gbps (100. *. single_util);
  let m = E.minix_event_sim () in
  Printf.printf "minix:         %.3f Gbps; %.0fk sync IPCs/s; lossless=%b\n"
    (m.E.minix_mbps /. 1000.) (m.E.sync_ipcs_per_sec /. 1000.) m.E.minix_lossless;
  print_newline ()

let print_sweep () =
  print_endline "NIC reset time vs recovery outage (restart-aware hardware, Section V-D)";
  print_endline "-------------------------------------------------------------------------";
  List.iter
    (fun (p : E.reset_sweep_point) ->
      Printf.printf "device reset %5.2f s -> outage %5.2f s (%d duplicates)\n"
        p.E.reset_time_s p.E.outage_s p.E.duplicates)
    (E.nic_reset_sweep ());
  print_newline ()

let print_coalesce () =
  print_endline "Section VI-A — driver coalescing (one driver for all interfaces)";
  print_endline "-----------------------------------------------------------------";
  List.iter
    (fun (r : E.coalescing_result) ->
      Printf.printf
        "%d driver(s), %d NIC(s) each: busiest driver core %.1f%% utilized -> %s\n"
        r.E.drivers r.E.nics_served
        (100.0 *. r.E.driver_core_utilization)
        (if r.E.sustainable then "sustains the full 5-NIC TSO rate"
         else "OVERLOADED");
      ())
    (E.driver_coalescing ());
  print_newline ()

let print_scaling ?verify shard_counts ip_replicas pf_shards flows duration =
  print_endline "Scaling — N transport shards behind a multi-queue NIC";
  print_endline "------------------------------------------------------";
  let r =
    E.scaling_curve ~shard_counts ~ip_replicas ~pf_shards ~flows ~duration
      ?verify ()
  in
  Printf.printf "single-instance Table II ceiling: %.2f Gbps\n" r.E.single_instance_gbps;
  List.iter
    (fun (p : E.scaling_point) ->
      Printf.printf
        "%d shard(s), %d IP replica(s)%s: %6.2f Gbps aggregate (%.2fx ceiling); imbalance %.2f; violations %d\n"
        p.E.shards p.E.ip_replicas
        (if p.E.pf_shards = 0 then ""
         else Printf.sprintf ", %d PF shard(s)" p.E.pf_shards)
        p.E.goodput_gbps
        (p.E.goodput_gbps /. r.E.single_instance_gbps)
        p.E.imbalance p.E.violations;
      Array.iter
        (fun (s : Newt_scale.Sharded_stack.shard_stats) ->
          Printf.printf
            "    shard %d: %d flows, %d segs out, core %.0f%%, queue depth %d\n"
            s.Newt_scale.Sharded_stack.shard s.flows s.segs_out
            (100.0 *. s.core_util) s.queue_depth)
        p.E.per_shard;
      Array.iter
        (fun (s : Newt_scale.Sharded_stack.pf_shard_stats) ->
          Printf.printf
            "    pf shard %d: %d verdicts, %d blocked, %d tracked, %d expired\n"
            s.Newt_scale.Sharded_stack.pf_shard s.verdicts s.pf_blocked
            s.entries s.expired)
        p.E.per_pf_shard)
    r.E.points;
  print_newline ()

module Ch = Newt_core.Churn

let churn_tail_json (t : Ch.tail) =
  Printf.sprintf
    "{\"samples\":%d,\"mean_us\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f}"
    t.Ch.samples t.Ch.mean_us t.Ch.p50_us t.Ch.p99_us t.Ch.p999_us

let churn_json (r : Ch.result) =
  Printf.sprintf
    "{\"scenario\":\"%s\",\"offered_rate\":%.0f,\"duration_s\":%.2f,\"started\":%d,\
     \"completed\":%d,\"rpc_errors\":%d,\"shed\":%d,\"completed_rate\":%.0f,\
     \"connect\":%s,\"request\":%s,\"bulk_goodput_gbps\":%.3f,\
     \"listen_overflows\":%d,\"accepted\":%d,\"client_resets\":%d,\
     \"flood_syns\":%d,\"conntrack\":{\"entries\":%d,\"half_open\":%d,\
     \"evicted_half_open\":%d,\"evicted_established\":%d},\
     \"conns_at_kill\":%d,\"shard_restarts\":%d,\"steering_violations\":%d,\
     \"checksum_failures\":%d}"
    (Ch.scenario_name r.Ch.scenario)
    r.Ch.offered_rate r.Ch.duration_s r.Ch.started r.Ch.completed
    r.Ch.rpc_errors r.Ch.shed r.Ch.completed_rate
    (churn_tail_json r.Ch.connect)
    (churn_tail_json r.Ch.request)
    r.Ch.bulk_goodput_gbps r.Ch.listen_overflows r.Ch.accepted
    r.Ch.client_resets r.Ch.flood_syns r.Ch.conntrack_entries
    r.Ch.conntrack_half_open r.Ch.evicted_half_open r.Ch.evicted_established
    r.Ch.conns_at_kill r.Ch.shard_restarts r.Ch.steering_violations
    r.Ch.checksum_failures

let churn_print_human (r : Ch.result) =
  Printf.printf "churn %s — %.0f conn/s offered for %.2f s\n"
    (Ch.scenario_name r.Ch.scenario)
    r.Ch.offered_rate r.Ch.duration_s;
  Printf.printf "  started %d  completed %d  errors %d  shed %d  (%.0f conn/s completed)\n"
    r.Ch.started r.Ch.completed r.Ch.rpc_errors r.Ch.shed r.Ch.completed_rate;
  let tail name (t : Ch.tail) =
    if t.Ch.samples > 0 then
      Printf.printf
        "  %-7s µs: p50 %8.1f  p99 %8.1f  p999 %8.1f  (n=%d, mean %.1f)\n" name
        t.Ch.p50_us t.Ch.p99_us t.Ch.p999_us t.Ch.samples t.Ch.mean_us
  in
  tail "connect" r.Ch.connect;
  tail "request" r.Ch.request;
  if r.Ch.bulk_goodput_gbps > 0.0 then
    Printf.printf "  bulk goodput %.2f Gbps\n" r.Ch.bulk_goodput_gbps;
  if r.Ch.scenario = Ch.Listen_pressure then
    Printf.printf "  listener: accepted %d; overflows (RST) %d; client resets %d\n"
      r.Ch.accepted r.Ch.listen_overflows r.Ch.client_resets
  else if r.Ch.listen_overflows > 0 then
    Printf.printf "  listen overflows %d\n" r.Ch.listen_overflows;
  if r.Ch.flood_syns > 0 then
    Printf.printf
      "  flood: %d SYNs; conntrack %d entries (%d half-open); evictions %d \
       half-open / %d established\n"
      r.Ch.flood_syns r.Ch.conntrack_entries r.Ch.conntrack_half_open
      r.Ch.evicted_half_open r.Ch.evicted_established;
  if r.Ch.scenario = Ch.Crash_during_churn then
    Printf.printf "  crash: %d connections on the shard at kill; %d restart(s)\n"
      r.Ch.conns_at_kill r.Ch.shard_restarts;
  Printf.printf "  steering violations %d; checksum failures %d\n\n"
    r.Ch.steering_violations r.Ch.checksum_failures

let print_churn scenario rate duration shards ip_replicas pf_shards bulk_flows
    workers payload flood_rate conntrack_total backlog seed json
    verify_continuous tcp_fsm break_tcp sample =
  let scenarios =
    if scenario = "all" then Ch.all_scenarios
    else
      match Ch.scenario_of_name scenario with
      | Some s -> [ s ]
      | None ->
          Printf.eprintf
            "unknown scenario %S (baseline, syn-flood, crash-during-churn, \
             listen-pressure, all)\n"
            scenario;
          exit 2
  in
  if not json then begin
    print_endline
      "Churn — short-RPC flows through the sharded stack, tail latency";
    print_endline
      "----------------------------------------------------------------"
  end;
  (* --break-tcp implies the checker: a planted bug that nothing judges
     would be a silently green sabotage run. *)
  let fsm_wanted = tcp_fsm || break_tcp <> None in
  with_sample sample @@ fun () ->
  with_continuous ~quiet:json verify_continuous @@ fun verify ->
  let results =
    List.map
      (fun s ->
        (* One checker lifetime per scenario: each run is a fresh world
           reusing the same addresses, so shadow PCBs must not leak
           from one run into the next. *)
        if fsm_wanted then begin
          V.Tcpfsm.install ();
          V.Tcpfsm.reset ()
        end;
        let r =
          Ch.run ~scenario:s ~rate ~duration ~shards ~ip_replicas ~pf_shards
            ~bulk_flows ~workers ~payload ~flood_rate ~conntrack_total
            ~backlog ~seed ?verify ?break_tcp ()
        in
        let fsm =
          if fsm_wanted then
            Some
              ( V.Tcpfsm.report
                  ~title:
                    (Printf.sprintf "tcp-fsm over churn %s"
                       (Ch.scenario_name s))
                  (),
                V.Tcpfsm.verdict_json () )
          else None
        in
        (r, fsm))
      scenarios
  in
  if fsm_wanted then V.Tcpfsm.uninstall ();
  if json then
    print_endline
      (Printf.sprintf "[%s]"
         (String.concat ","
            (List.map
               (fun (r, fsm) ->
                 let obj = churn_json r in
                 match fsm with
                 | None -> obj
                 | Some (_, js) ->
                     (* Splice the verdict into the run's object. *)
                     String.sub obj 0 (String.length obj - 1)
                     ^ ",\"tcpfsm\":" ^ js ^ "}")
               results)))
  else
    List.iter
      (fun (r, fsm) ->
        churn_print_human r;
        Option.iter
          (fun (rep, _) ->
            print_string (V.Report.to_string rep);
            print_newline ())
          fsm)
      results;
  List.iter
    (fun (_, fsm) ->
      Option.iter
        (fun (rep, _) ->
          let code = V.Report.exit_code rep in
          if code <> 0 then exit code)
        fsm)
    results

(* verify --protocol: replay the request/confirm contract over the two
   figure fault runs (an IP crash, a double PF crash) and demand a
   clean close — every obligation confirmed or aborted, stale confirms
   absorbed, nothing dropped on a stranded requester. *)
let print_verify_protocol json =
  let r_ip, _ = E.protocol_ip_crash () in
  let r_pf, _ = E.protocol_pf_crash () in
  let combined =
    V.Report.merge ~title:"dynamic channel-protocol contract" [ r_ip; r_pf ]
  in
  if json then print_endline (V.Report.to_json combined)
  else begin
    print_endline "Stack verifier — dynamic channel-protocol contract";
    print_endline "---------------------------------------------------";
    print_endline "rules (first match wins):";
    List.iter (fun l -> Printf.printf "  %s\n" l) (V.Protocol.describe_rules ());
    print_newline ();
    print_string (V.Report.to_string r_ip);
    print_string (V.Report.to_string r_pf);
    Printf.printf "\n%s\n"
      (if V.Report.ok combined then "VERDICT: OK (no violations)"
       else "VERDICT: FAILED")
  end;
  if not (V.Report.ok combined) then exit 1

(* verify --tcp-fsm: first prove the rule tables themselves (totality,
   determinism, no dead rules, liveness of the transition relation),
   then replay the checker over both figure fault runs and a
   crash-during-churn run with the SYN flood on — every observed
   segment and state transition of every PCB judged against RFC 793
   plus the paper's Table I crash semantics. *)
let print_verify_tcpfsm json =
  let lint = V.Tcpfsm.lint_table () in
  let replay title f =
    V.Tcpfsm.install ();
    V.Tcpfsm.reset ();
    f ();
    let r = V.Tcpfsm.report ~title () in
    V.Tcpfsm.uninstall ();
    r
  in
  let r_fig4 =
    replay "tcp-fsm over fig4 (IP crash)" (fun () ->
        ignore (E.figure_ip_crash ~seed:42 ()))
  in
  let r_fig5 =
    replay "tcp-fsm over fig5 (double PF crash)" (fun () ->
        ignore (E.figure_pf_crash ~seed:42 ()))
  in
  let r_churn =
    replay "tcp-fsm over churn (shard crash, flood on)" (fun () ->
        ignore
          (Ch.run ~scenario:Ch.Crash_during_churn ~rate:2_000.0 ~duration:0.4
             ~shards:4 ~ip_replicas:2 ~pf_shards:2 ~workers:4
             ~flood_rate:5_000.0 ~seed:42 ()))
  in
  let combined =
    V.Report.merge ~title:"tcp conformance" [ lint; r_fig4; r_fig5; r_churn ]
  in
  if json then print_endline (V.Report.to_json combined)
  else begin
    print_endline "Stack verifier — TCP state-machine conformance";
    print_endline "-----------------------------------------------";
    print_endline "segment rules (first match wins):";
    List.iter (fun l -> Printf.printf "  %s\n" l) (V.Tcpfsm.describe_rules ());
    print_endline "transition relation:";
    List.iter
      (fun l -> Printf.printf "  %s\n" l)
      (V.Tcpfsm.describe_transitions ());
    print_newline ();
    print_string (V.Report.to_string lint);
    print_string (V.Report.to_string r_fig4);
    print_string (V.Report.to_string r_fig5);
    print_string (V.Report.to_string r_churn);
    Printf.printf "\n%s\n"
      (if V.Report.ok combined then "VERDICT: OK (no violations)"
       else "VERDICT: FAILED")
  end;
  let code = V.Report.exit_code combined in
  if code <> 0 then exit code

let print_verify_static json max_shards =
  let reports = E.verify_configs ~max_shards () in
  let combined = V.Report.merge ~title:"all stack configurations" reports in
  if json then print_endline (V.Report.to_json combined)
  else begin
    print_endline "Stack verifier — static channel-graph checks";
    print_endline "---------------------------------------------";
    List.iter (fun r -> print_string (V.Report.to_string r)) reports;
    Printf.printf "\n%s\n"
      (if V.Report.ok combined then "VERDICT: OK (no violations)"
       else "VERDICT: FAILED")
  end;
  if not (V.Report.ok combined) then exit 1

(* The native runtime: the same servers on real OCaml 5 domains.
   Unsupported configurations must error (or, with --skip-unsupported,
   exit 0 visibly) — never fall back to the simulator. *)
module R = Newt_runtime

(* verify --native-ownership: lint the native runtime's pinning plan —
   every mutable structure gets an owning domain and every cross-domain
   edge must ride a sanctioned primitive (SPSC ring, Atomic, park
   mutex, pool lock). Checked at several domain counts because the
   round-robin placement changes which components share a domain. *)
let print_verify_native_ownership json break_race domains_opt =
  let domain_counts =
    match domains_opt with Some d -> [ d ] | None -> [ 2; 4; 8 ]
  in
  let reports =
    List.map
      (fun d ->
        V.Static.check_native_plan
          ~title:(Printf.sprintf "native ownership, %d domains" d)
          (R.Native.ownership_plan ?break_race ~domains:d ()))
      domain_counts
  in
  let combined = V.Report.merge ~title:"native domain-ownership lint" reports in
  if json then print_endline (V.Report.to_json combined)
  else begin
    print_endline "Stack verifier — native domain-ownership lint";
    print_endline "----------------------------------------------";
    List.iter (fun r -> print_string (V.Report.to_string r)) reports;
    Printf.printf "\n%s\n"
      (if V.Report.ok combined then "VERDICT: OK (no violations)"
       else "VERDICT: FAILED")
  end;
  let code = V.Report.exit_code combined in
  if code <> 0 then exit code

let print_verify json protocol native_ownership tcp_fsm break_race domains_opt
    max_shards =
  if native_ownership then print_verify_native_ownership json break_race
      domains_opt
  else if tcp_fsm then print_verify_tcpfsm json
  else if protocol then print_verify_protocol json
  else print_verify_static json max_shards

let print_native_result (r : R.Native.result) =
  Printf.printf
    "native run: %d domain(s), %.1f s wall clock\n\
     goodput: %.1f Mbps (%d bytes received of %d sent)\n\
     frames: %d to peer, %d from peer (%d dropped: no RX buffer)\n\
     ping: %d echoes, RTT mean %.1f us, p99 %.1f us (%d answered by IP)\n\
     checksum failures at peer: %d\n"
    r.R.Native.domains_used r.R.Native.seconds_run r.R.Native.goodput_mbps
    r.R.Native.tcp_bytes r.R.Native.iperf_bytes_sent r.R.Native.frames_to_peer
    r.R.Native.frames_from_peer r.R.Native.rx_no_buffer r.R.Native.ping_count
    r.R.Native.ping_rtt_us_mean r.R.Native.ping_rtt_us_p99
    r.R.Native.icmp_echoes r.R.Native.checksum_failures;
  print_endline "rings (sent/dropped/max-occupancy/capacity):";
  List.iter
    (fun (s : R.Native.ring_stat) ->
      Printf.printf "  %-14s %9d %6d %6d %6d\n" s.R.Native.ring s.R.Native.sent
        s.R.Native.dropped s.R.Native.max_occupancy s.R.Native.ring_capacity)
    r.R.Native.rings;
  print_endline "domains (parks/wakes/posts-remote/posts-self/timers/executed):";
  List.iter
    (fun (s : R.Loop.stats) ->
      Printf.printf "  %d [%s] %8d %8d %9d %10d %8d %10d\n" s.R.Loop.index
        (String.concat "," s.R.Loop.pinned)
        s.R.Loop.parks s.R.Loop.wakes s.R.Loop.posts_remote s.R.Loop.posts_self
        s.R.Loop.timer_fires s.R.Loop.executed)
    r.R.Native.loops

let run_native domains seconds seed json skip_unsupported allow_oversub
    write_size spin_budget never_park confirm_batch overhead race break_race
    tcp_fsm break_tcp sample =
  let recommended = Domain.recommended_domain_count () in
  match
    R.Native.validate ~recommended ~allow_oversubscribe:allow_oversub ~domains
      ()
  with
  | Error msg when skip_unsupported ->
      Printf.printf "SKIP: %s\n" msg;
      exit 0
  | Error msg ->
      prerr_endline ("newtos_sim native: " ^ msg);
      exit 2
  | Ok () ->
      let cfg =
        {
          R.Native.default_config with
          domains;
          seconds;
          seed;
          write_size;
          spin_budget;
          never_park;
          confirm_batch;
          overhead;
          race;
          break_race;
          tcp_fsm;
          break_tcp;
        }
      in
      let r = with_sample sample (fun () -> R.Native.run cfg) in
      if json then print_endline (R.Native.json_of_result r)
      else print_native_result r;
      (* The checker verdicts decide the exit code (JSON already
         carries the full "tcpfsm"/"race" blocks inside
         json_of_result). *)
      (match r.R.Native.tcpfsm with
      | None -> ()
      | Some (true, _) ->
          if not json then print_endline "tcp-fsm conformance: OK"
      | Some (false, js) ->
          if not json then
            print_endline ("tcp-fsm conformance FAILED: " ^ js);
          exit 1);
      match r.R.Native.race with
      | None -> ()
      | Some o ->
          let report = V.Race.Dynamic.report ~title:"native race detector" o in
          if not json then print_string (V.Report.to_string report);
          let code = V.Report.exit_code report in
          if code <> 0 then exit code

let print_crossval domains seconds json skip_unsupported allow_oversub =
  let recommended = Domain.recommended_domain_count () in
  match
    R.Native.validate ~recommended ~allow_oversubscribe:allow_oversub ~domains
      ()
  with
  | Error msg when skip_unsupported ->
      Printf.printf "SKIP: %s\n" msg;
      exit 0
  | Error msg ->
      prerr_endline ("newtos_sim crossval: " ^ msg);
      exit 2
  | Ok () ->
      let r = R.Crossval.run ~domains ~seconds () in
      if json then print_endline (R.Crossval.to_json r)
      else print_string (R.Crossval.to_string r)

(* The mcheck subcommand: exhaustive (component × labeled recovery
   step) crash-point search over the chosen configurations. *)
let print_mcheck json config budget seed break_recovery =
  let outcomes =
    (if config = `Sharded then []
     else [ ("split stack", E.mcheck_split ?budget ~seed ?break_recovery ()) ])
    @
    if config = `Split then []
    else
      [ ("sharded N=2 r=2 pf=2", E.mcheck_sharded ?budget ?break_recovery ()) ]
  in
  if json then
    print_endline
      (Printf.sprintf "[%s]"
         (String.concat ","
            (List.map (fun (t, o) -> V.Mcheck.to_json ~title:t o) outcomes)))
  else
    List.iter
      (fun (t, o) ->
        print_string (V.Report.to_string (V.Mcheck.report ~title:t o));
        Printf.printf
          "crash points: %d; counterexamples: %d; skipped (budget): %d; %.1f s CPU\n\n"
          (List.length o.V.Mcheck.verdicts)
          (List.length (V.Mcheck.counterexamples o))
          (List.length o.V.Mcheck.skipped)
          o.V.Mcheck.elapsed)
      outcomes;
  if not (List.for_all (fun (_, o) -> V.Mcheck.ok o) outcomes) then exit 1

open Cmdliner

let sanitize =
  let doc = "Run with the pool-ownership sanitizer installed and print its verdict." in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let protocol_flag =
  let doc =
    "Replay the dynamic request/confirm contract (the channel-protocol \
     checker) over the run and print its verdict. Exits 1 on any violation. \
     Composes with $(b,--verify-continuous), which folds the protocol \
     counters into its per-run JSON."
  in
  Arg.(value & flag & info [ "protocol" ] ~doc)

let verify_continuous =
  let doc =
    "Re-run the static stack checker against the live topology after every \
     reincarnation and leak-check each quiesced run tail. Exits 1 on any \
     violation or leak."
  in
  Arg.(value & flag & info [ "verify-continuous" ] ~doc)

let tcp_fsm_flag =
  let doc =
    "Arm the TCP state-machine conformance checker over the run: every \
     observed segment and state transition of every PCB is judged against \
     a declarative RFC 793 + crash-semantics rule table. Exits 1 on any \
     violation. Composes with $(b,--verify-continuous), which folds the \
     checker's counters into its per-run JSON."
  in
  Arg.(value & flag & info [ "tcp-fsm" ] ~doc)

let verify_sample =
  let doc =
    "Sample the verification hooks one subject in N (rounded up to a power \
     of two; 1 checks everything): whole pool slots, request conversations, \
     native memory locations and TCP connections are kept or dropped \
     together, and clock- and ownership-critical events are never sampled \
     out — sampling can hide a violation but never invent one."
  in
  Arg.(value & opt int 1 & info [ "verify-sample" ] ~docv:"N" ~doc)

(* --break-tcp: the --break-recovery pattern applied to the TCP state
   machine. Each mode plants the paper's §V-B bug class — answering
   traffic from the wrong protocol state — and implies the checker. *)
let break_tcp_arg =
  let parse s =
    match s with
    | "stale-established" -> Ok Newt_net.Tcp.Stale_established
    | "ack-from-closed" -> Ok Newt_net.Tcp.Ack_from_closed
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown TCP sabotage %S (expected stale-established or \
                ack-from-closed)"
               s))
  in
  let print ppf b =
    Format.pp_print_string ppf
      (match b with
      | Newt_net.Tcp.Stale_established -> "stale-established"
      | Newt_net.Tcp.Ack_from_closed -> "ack-from-closed")
  in
  let doc =
    "Plant a deliberate TCP conformance bug the checker must catch (exit \
     1; implies $(b,--tcp-fsm)): $(b,stale-established) resurrects a \
     crashed engine's connections as forged Established PCBs, so peers \
     see stale Established state instead of RST-from-Closed; \
     $(b,ack-from-closed) answers segments for closed ports with a bare \
     ACK instead of the RST that RFC 793 demands."
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "break-tcp" ] ~docv:"MODE" ~doc)

let break_recovery =
  let parse s =
    let comp_of = function
      | "tcp" -> Ok Newt_core.Host.C_tcp
      | "udp" -> Ok Newt_core.Host.C_udp
      | "ip" -> Ok Newt_core.Host.C_ip
      | "pf" -> Ok Newt_core.Host.C_pf
      | "drv" -> Ok (Newt_core.Host.C_drv 0)
      | c -> Error (`Msg (Printf.sprintf "unknown component %S" c))
    in
    let kind_of = function
      | "wrong-core" -> Ok Newt_core.Host.Wrong_core
      | "skip-republish" -> Ok Newt_core.Host.Skip_republish
      | k -> Error (`Msg (Printf.sprintf "unknown sabotage %S" k))
    in
    match String.split_on_char ':' s with
    | [ c; k ] -> (
        match (comp_of c, kind_of k) with
        | Ok c, Ok k -> Ok (c, k)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    | _ -> Error (`Msg "expected COMPONENT:KIND, e.g. ip:wrong-core")
  in
  let print ppf (c, k) =
    Format.fprintf ppf "%s:%s"
      (match c with
      | Newt_core.Host.C_tcp -> "tcp"
      | Newt_core.Host.C_udp -> "udp"
      | Newt_core.Host.C_ip -> "ip"
      | Newt_core.Host.C_pf -> "pf"
      | Newt_core.Host.C_drv _ -> "drv")
      (match k with
      | Newt_core.Host.Wrong_core -> "wrong-core"
      | Newt_core.Host.Skip_republish -> "skip-republish")
  in
  let doc =
    "Sabotage the named component's recovery in every run \
     (COMPONENT:KIND; components tcp, udp, ip, pf, drv; kinds wrong-core, \
     skip-republish). The continuous checker, not the traffic, must catch \
     it — use with $(b,--verify-continuous)."
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "break-recovery" ] ~docv:"COMPONENT:KIND" ~doc)

let campaign_json_flag =
  let doc = "Emit the campaign results (and verifier counters) as JSON." in
  Arg.(value & flag & info [ "json" ] ~doc)

let seed =
  let doc = "Random seed for the simulation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let campaign_seed =
  let doc = "Random seed for the fault-injection campaign." in
  Arg.(value & opt int 2 & info [ "seed" ] ~doc)

let runs =
  let doc = "Number of fault-injection runs." in
  Arg.(value & opt int 100 & info [ "runs" ] ~doc)

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table II (peak outgoing TCP throughput)")
    Term.(const print_table2 $ const ())

let fig4_cmd =
  Cmd.v (Cmd.info "fig4" ~doc:"Reproduce Figure 4 (IP server crash bitrate trace)")
    Term.(
      const print_fig4 $ seed $ sanitize $ protocol_flag $ verify_continuous
      $ tcp_fsm_flag $ verify_sample)

let fig5_cmd =
  Cmd.v (Cmd.info "fig5" ~doc:"Reproduce Figure 5 (packet filter crash bitrate trace)")
    Term.(
      const print_fig5 $ seed $ sanitize $ protocol_flag $ verify_continuous
      $ tcp_fsm_flag $ verify_sample)

let campaign_pf_shards =
  let doc =
    "Packet-filter shards in every campaign host (>= 1); the JSON output \
     carries one counter block per shard."
  in
  Arg.(value & opt int 1 & info [ "pf-shards" ] ~doc)

let campaign_cmd =
  Cmd.v
    (Cmd.info "campaign" ~doc:"Reproduce Tables III and IV (fault-injection campaign)")
    Term.(
      const print_campaign
      $ runs $ campaign_seed $ sanitize $ protocol_flag $ verify_continuous
      $ break_recovery $ campaign_pf_shards $ campaign_json_flag
      $ verify_sample)

(* --break-race: the --break-recovery pattern applied to memory
   ordering. The same argument serves both the static lint (the
   sabotage is lowered into the plan) and the native run (the sabotage
   is actually executed and the dynamic detector must catch it). *)
let break_race_arg =
  let parse s =
    match R.Native.break_race_of_string s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown race sabotage %S (expected %s)" s
               (String.concat " or " R.Native.break_race_modes)))
  in
  let print ppf b =
    Format.pp_print_string ppf (R.Native.break_race_to_string b)
  in
  let doc =
    "Plant a deliberate data race the detector must catch (exit 1): \
     $(b,spsc:two-producers) pushes onto the peer's wire ring from a second \
     domain; $(b,loop:unfenced-counter) shares a plain int ref between two \
     loops and the main thread. Under $(b,verify --native-ownership) the \
     sabotage is lowered into the plan so the static lint flags it too."
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "break-race" ] ~docv:"MODE" ~doc)

let verify_cmd =
  let json =
    let doc = "Emit the machine-readable JSON verdict instead of the report." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let max_shards =
    let doc = "Largest shard count to verify (configurations N=1..this)." in
    Arg.(value & opt int 8 & info [ "max-shards" ] ~doc)
  in
  let protocol =
    let doc =
      "Check the dynamic request/confirm contract instead: replay the \
       channel-protocol rules over an IP-crash run and a double-PF-crash \
       run and demand a clean close (every request confirmed or aborted, \
       no stranded hand-offs)."
    in
    Arg.(value & flag & info [ "protocol" ] ~doc)
  in
  let native_ownership =
    let doc =
      "Lint the native runtime's domain-ownership plan instead: every \
       mutable structure (ring, pool, inbox, timer wheel, counter) must \
       have an owning domain under the pinning plan, and every cross-domain \
       edge must ride a sanctioned primitive (SPSC ring with one producer \
       and one consumer domain, Atomic, park mutex, pool lock)."
    in
    Arg.(value & flag & info [ "native-ownership" ] ~doc)
  in
  let lint_domains =
    let doc =
      "With $(b,--native-ownership), lint the plan at this domain count \
       only (the default lints 2, 4 and 8, since placement changes with \
       the count)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let tcp_fsm =
    let doc =
      "Check TCP state-machine conformance instead: print the declarative \
       (state × segment class × direction) rule table and the transition \
       relation, prove them total, deterministic, free of dead rules and \
       dead-end states (the static lint), then replay the checker over the \
       two figure fault runs and a crash-during-churn run with the SYN \
       flood on — every observed segment and transition of every PCB \
       judged against RFC 793 plus the paper's Table I crash semantics."
    in
    Arg.(value & flag & info [ "tcp-fsm" ] ~doc)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Static stack verifier: wire every shipped configuration and check \
          the channel graph (SPSC discipline, core affinity, export \
          ownership, republish completeness, blocking cycles, pool \
          ownership, shard affinity). With $(b,--protocol), the dynamic \
          channel-protocol contract over crash runs instead; with \
          $(b,--native-ownership), the native runtime's domain-ownership \
          lint; with $(b,--tcp-fsm), the TCP state-machine conformance \
          tables (lint + replay). Exits 1 on any violation.")
    Term.(
      const print_verify $ json $ protocol $ native_ownership $ tcp_fsm
      $ break_race_arg $ lint_domains $ max_shards)

let coalesce_cmd =
  Cmd.v (Cmd.info "coalesce" ~doc:"Driver coalescing analysis (Section VI-A)")
    Term.(const print_coalesce $ const ())

let crosscheck_cmd =
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:"Packet-level simulations vs the capacity model (split/single/minix)")
    Term.(const print_crosscheck $ const ())

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"NIC reset time vs recovery outage (Section V-D)")
    Term.(const print_sweep $ const ())

let scaling_cmd =
  let shard_counts =
    let doc = "Shard counts to sweep." in
    Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "shards" ] ~doc)
  in
  let flows =
    let doc = "Parallel iperf flows." in
    Arg.(value & opt int 8 & info [ "flows" ] ~doc)
  in
  let ip_replicas =
    let doc = "Replicated IP server instances (capped at the shard count)." in
    Arg.(value & opt int 1 & info [ "ip-replicas" ] ~doc)
  in
  let pf_shards =
    let doc =
      "Packet-filter shards on the path (capped at the shard count); 0 — \
       the default — runs without a filter, the historical curve."
    in
    Arg.(value & opt int 0 & info [ "pf-shards" ] ~doc)
  in
  let duration =
    let doc = "Simulated seconds per point." in
    Arg.(value & opt float 0.5 & info [ "duration" ] ~doc)
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Goodput vs number of TCP shards (multi-queue NIC + sharded stack)")
    Term.(
      const (fun vc sc ir pf f d ->
          with_continuous vc (fun verify -> print_scaling ?verify sc ir pf f d))
      $ verify_continuous $ shard_counts $ ip_replicas $ pf_shards $ flows
      $ duration)

let churn_cmd =
  let scenario =
    let doc =
      "Scenario: baseline, syn-flood, crash-during-churn, listen-pressure, \
       or all."
    in
    Arg.(value & opt string "baseline" & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let rate =
    let doc = "Offered RPC starts per second." in
    Arg.(value & opt float 10_000.0 & info [ "rate" ] ~doc)
  in
  let duration =
    let doc = "Simulated seconds of churn." in
    Arg.(value & opt float 1.0 & info [ "duration" ] ~doc)
  in
  let shards =
    let doc = "TCP shards." in
    Arg.(value & opt int 8 & info [ "shards" ] ~doc)
  in
  let ip_replicas =
    let doc = "IP server replicas (capped at the shard count)." in
    Arg.(value & opt int 4 & info [ "ip-replicas" ] ~doc)
  in
  let pf_shards =
    let doc = "Packet-filter shards (capped at the shard count)." in
    Arg.(value & opt int 2 & info [ "pf-shards" ] ~doc)
  in
  let bulk_flows =
    let doc = "Bulk iperf flows riding alongside the churn." in
    Arg.(value & opt int 4 & info [ "bulk-flows" ] ~doc)
  in
  let workers =
    let doc = "Open-loop RPC workers sharing the offered rate." in
    Arg.(value & opt int 8 & info [ "workers" ] ~doc)
  in
  let payload =
    let doc = "RPC payload bytes (echoed back)." in
    Arg.(value & opt int 256 & info [ "payload" ] ~doc)
  in
  let flood_rate =
    let doc = "Spoofed SYNs per second in the flood scenarios." in
    Arg.(value & opt float 20_000.0 & info [ "flood-rate" ] ~doc)
  in
  let conntrack_total =
    let doc = "Whole-stack conntrack budget (split across PF shards)." in
    Arg.(value & opt int 8192 & info [ "conntrack-total" ] ~doc)
  in
  let backlog =
    let doc = "Listener backlog in the listen-pressure scenario." in
    Arg.(value & opt int 16 & info [ "backlog" ] ~doc)
  in
  let json =
    let doc = "Emit the results as a JSON array." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Flow churn: short RPC connections at rate alongside bulk flows; \
          p50/p99/p999 connect and request latency, plus the SYN-flood, \
          listen-pressure and crash-during-churn adversarial scenarios")
    Term.(
      const print_churn $ scenario $ rate $ duration $ shards $ ip_replicas
      $ pf_shards $ bulk_flows $ workers $ payload $ flood_rate
      $ conntrack_total $ backlog $ seed $ json $ verify_continuous
      $ tcp_fsm_flag $ break_tcp_arg $ verify_sample)

let mcheck_cmd =
  let json =
    let doc = "Emit the machine-readable JSON verdict instead of the report." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let config =
    let doc =
      "Which configuration(s) to model-check: $(b,split), $(b,sharded) \
       (N=2 shards × r=2 IP replicas × pf=2 PF shards), or $(b,all)."
    in
    Arg.(
      value
      & opt (enum [ ("split", `Split); ("sharded", `Sharded); ("all", `All) ]) `All
      & info [ "config" ] ~docv:"CONFIG" ~doc)
  in
  let budget =
    let doc =
      "CPU-seconds budget for the search; crash points beyond it are \
       reported as skipped (never silently dropped)."
    in
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECONDS" ~doc)
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Recovery model checker: for every (component × labeled recovery \
          step) crash point, crash the component again right after that \
          step of its own recovery and verify the stack converges — \
          reincarnation healthy, continuous verifier clean, protocol \
          contract closed. Exits 1 with counterexample traces otherwise; \
          $(b,--break-recovery) plants a recovery defect the search must \
          find.")
    Term.(
      const print_mcheck $ json $ config $ budget $ seed $ break_recovery)

let native_domains =
  let doc = "Number of OCaml domains (event-loop threads) to run on." in
  Arg.(value & opt int 2 & info [ "domains" ] ~doc)

let native_seconds =
  let doc = "Wall-clock seconds to drive the workload." in
  Arg.(value & opt float 2.0 & info [ "seconds" ] ~doc)

let native_json =
  let doc = "Emit the run's counters as JSON." in
  Arg.(value & flag & info [ "json" ] ~doc)

let skip_unsupported =
  let doc =
    "Exit 0 with a visible SKIP line when the machine cannot run the \
     requested domain count (for smoke tests on small machines). The \
     default is a hard error — there is never a silent fallback to the \
     simulator."
  in
  Arg.(value & flag & info [ "skip-unsupported" ] ~doc)

let allow_oversubscribe =
  let doc =
    "Allow more domains than Domain.recommended_domain_count: the OS \
     time-slices them, so absolute numbers measure scheduler noise too."
  in
  Arg.(value & flag & info [ "allow-oversubscribe" ] ~doc)

let native_cmd =
  let write_size =
    let doc = "Bytes per iperf write." in
    Arg.(value & opt int 8192 & info [ "write-size" ] ~doc)
  in
  let spin_budget =
    let doc = "Idle poll iterations before a domain parks." in
    Arg.(value & opt int 2_000 & info [ "spin-budget" ] ~doc)
  in
  let never_park =
    let doc = "Poll forever instead of parking (the MWAIT-off ablation)." in
    Arg.(value & flag & info [ "never-park" ] ~doc)
  in
  let confirm_batch =
    let doc = "Driver TX confirms coalesced per message (1 = no batching)." in
    Arg.(value & opt int 8 & info [ "confirm-batch" ] ~doc)
  in
  let overhead =
    let doc =
      "Per-send overhead ablation: $(b,none), $(b,kipc) (a kernel-lock \
       round trip per channel send), or $(b,copy) (two MSS-sized copies \
       per send)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("none", R.Native.No_overhead);
               ("kipc", R.Native.Kipc_trap);
               ("copy", R.Native.Copy_per_hop);
             ])
          R.Native.No_overhead
      & info [ "overhead" ] ~doc)
  in
  let race =
    let doc =
      "Arm the vector-clock happens-before race detector around the run: \
       every SPSC push/pop, doorbell post/drain/park/wake and pool slot \
       hand-off feeds a per-domain vector clock, and any unordered access \
       pair is reported with both stacks and a replayable event trace. \
       Exits 1 on any race."
    in
    Arg.(value & flag & info [ "race" ] ~doc)
  in
  Cmd.v
    (Cmd.info "native"
       ~doc:
         "Run the split stack natively: the same servers as the simulator, \
          as event loops pinned to real OCaml 5 domains over real SPSC \
          rings, driving an iperf-style bulk flow plus the split-stack \
          ping path. Errors out (exit 2) when the machine cannot honour \
          $(b,--domains) — it never silently simulates instead. \
          $(b,--race) arms the vector-clock race detector; \
          $(b,--break-race) plants a deliberate race it must catch. \
          $(b,--tcp-fsm) arms the TCP conformance checker; \
          $(b,--break-tcp) plants a deliberate TCP bug it must catch.")
    Term.(
      const run_native $ native_domains $ native_seconds $ seed $ native_json
      $ skip_unsupported $ allow_oversubscribe $ write_size $ spin_budget
      $ never_park $ confirm_batch $ overhead $ race $ break_race_arg
      $ tcp_fsm_flag $ break_tcp_arg $ verify_sample)

let crossval_cmd =
  Cmd.v
    (Cmd.info "crossval"
       ~doc:
         "Cross-validate simulator against native execution: re-run the \
          Section IV ordering comparisons (channel-cost ablations of \
          Table II, park-vs-poll latency) in both modes and check sign \
          and rank order.")
    Term.(
      const print_crossval $ native_domains $ native_seconds $ native_json
      $ skip_unsupported $ allow_oversubscribe)

let all_cmd =
  let run () =
    print_table2 ();
    print_fig4 42 false false false false 1;
    print_fig5 42 false false false false 1;
    print_campaign 100 2 false false false None 1 false 1;
    print_crosscheck ();
    print_coalesce ();
    print_sweep ();
    print_scaling [ 1; 2; 4; 8 ] 1 0 8 0.5;
    print_scaling [ 8 ] 2 0 8 0.5;
    print_scaling [ 8 ] 2 2 8 0.5
  in
  Cmd.v (Cmd.info "all" ~doc:"Run the complete evaluation") Term.(const run $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "newtos_sim" ~doc:"NewtOS 'Keep Net Working' reproduction" in
  exit (Cmd.eval (Cmd.group ~default info [
          table2_cmd;
          fig4_cmd;
          fig5_cmd;
          campaign_cmd;
          crosscheck_cmd;
          coalesce_cmd;
          sweep_cmd;
          scaling_cmd;
          churn_cmd;
          verify_cmd;
          mcheck_cmd;
          native_cmd;
          crossval_cmd;
          all_cmd;
        ]))
