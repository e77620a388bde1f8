module Costs = Newt_hw.Costs
module C = Newt_stack.Capacity
module E = Newt_core.Experiments

(* Cross-validation: the simulator makes ordinal claims (design A beats
   design B, and by roughly this factor); native execution re-runs the
   same comparisons on real domains. Absolute numbers cannot match — the
   model charges 1.9 GHz Opteron cycles, the native run pays OCaml on
   whatever this machine is — so we compare signs and rank orders, with
   a tolerance band for comparisons too close to call. *)

type check = {
  check : string;
  sim_hi : float;
  sim_lo : float;  (** The simulator predicts hi > lo. *)
  native_hi : float;
  native_lo : float;
  verdict : string;
}

type t = {
  domains : int;
  recommended : int;
  seconds_per_run : float;
  sim_goodput_gbps : (string * float) list;
  native_goodput_mbps : (string * float) list;
  sim_rtt_us : (string * float) list;
  native_rtt_us : (string * float) list;
  checks : check list;
}

let tolerance = 0.05

(* [hi] and [lo] are the native measurements for the pair the simulator
   orders as hi > lo. *)
let judge ~check ~sim_hi ~sim_lo ~native_hi ~native_lo =
  let verdict =
    if native_hi > native_lo then "match"
    else if
      abs_float (native_hi -. native_lo) /. Float.max native_hi native_lo
      < tolerance
    then "inconclusive (within 5% tolerance)"
    else "MISMATCH"
  in
  { check; sim_hi; sim_lo; native_hi; native_lo; verdict }

let rank l =
  (* Names sorted by decreasing value. *)
  List.map fst (List.sort (fun (_, a) (_, b) -> compare b a) l)

let run ~domains ~seconds () =
  let seed = 42 in
  (* {2 Simulator side: the Table II channel-cost ablation} *)
  let base = Costs.default in
  let kipc =
    {
      base with
      Costs.channel_enqueue = base.Costs.trap_hot + base.Costs.kipc_kernel_work;
      channel_dequeue = base.Costs.trap_hot;
    }
  in
  let copy =
    {
      base with
      Costs.channel_marshal =
        base.Costs.channel_marshal + (2 * Costs.copy_cost base 1460);
    }
  in
  let sim_gbps costs =
    (C.evaluate ~costs C.Split_dedicated_sc).C.goodput_gbps
  in
  let sim_goodput =
    [
      ("base", sim_gbps base); ("kipc", sim_gbps kipc); ("copy", sim_gbps copy);
    ]
  in
  (* The Section IV-B wake-up ablation: polling vs halting (MWAIT). *)
  let lat = E.mwait_latency_ablation ~seed () in
  let by_window f =
    List.fold_left
      (fun acc (p : E.latency_point) ->
        match acc with
        | None -> Some p
        | Some q -> if f p.E.poll_window_us q.E.poll_window_us then Some p else Some q)
      None lat
    |> Option.get
  in
  let sim_park = by_window ( < ) and sim_poll = by_window ( > ) in
  let sim_rtt =
    [
      ("park", sim_park.E.mean_rtt_us); ("poll", sim_poll.E.mean_rtt_us);
    ]
  in
  (* {2 Native side: the same four comparisons on real domains} *)
  let native overhead never_park =
    Native.run
      {
        Native.default_config with
        domains;
        seconds;
        seed;
        overhead;
        never_park;
      }
  in
  let n_base = native Native.No_overhead false in
  let n_kipc = native Native.Kipc_trap false in
  let n_copy = native Native.Copy_per_hop false in
  let n_poll = native Native.No_overhead true in
  let native_goodput =
    [
      ("base", n_base.Native.goodput_mbps);
      ("kipc", n_kipc.Native.goodput_mbps);
      ("copy", n_copy.Native.goodput_mbps);
    ]
  in
  let native_rtt =
    [
      ("park", n_base.Native.ping_rtt_us_mean);
      ("poll", n_poll.Native.ping_rtt_us_mean);
    ]
  in
  let g = List.assoc in
  let checks =
    [
      judge ~check:"kernel IPC per message slows bulk goodput"
        ~sim_hi:(g "base" sim_goodput) ~sim_lo:(g "kipc" sim_goodput)
        ~native_hi:(g "base" native_goodput)
        ~native_lo:(g "kipc" native_goodput);
      judge ~check:"per-hop payload copies slow bulk goodput"
        ~sim_hi:(g "base" sim_goodput) ~sim_lo:(g "copy" sim_goodput)
        ~native_hi:(g "base" native_goodput)
        ~native_lo:(g "copy" native_goodput);
      (let sim_r = rank sim_goodput and nat_r = rank native_goodput in
       {
         check = "ablation rank order (base/kipc/copy)";
         sim_hi = 0.;
         sim_lo = 0.;
         native_hi = 0.;
         native_lo = 0.;
         verdict =
           (if sim_r = nat_r then
              "match (" ^ String.concat " > " nat_r ^ ")"
            else
              Printf.sprintf "MISMATCH (sim %s; native %s)"
                (String.concat " > " sim_r)
                (String.concat " > " nat_r));
       });
      judge ~check:"parking costs echo latency vs polling (RTT: park > poll)"
        ~sim_hi:(g "park" sim_rtt) ~sim_lo:(g "poll" sim_rtt)
        ~native_hi:(g "park" native_rtt) ~native_lo:(g "poll" native_rtt);
    ]
  in
  {
    domains;
    recommended = Domain.recommended_domain_count ();
    seconds_per_run = seconds;
    sim_goodput_gbps = sim_goodput;
    native_goodput_mbps = native_goodput;
    sim_rtt_us = sim_rtt;
    native_rtt_us = native_rtt;
    checks;
  }

let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Cross-validation — simulator vs native domains\n";
  Buffer.add_string b "------------------------------------------------\n";
  Buffer.add_string b
    (Printf.sprintf
       "%d domain(s) (recommended here: %d)%s; %.1f s per native run\n"
       t.domains t.recommended
       (if t.domains > t.recommended then " — OVERSUBSCRIBED" else "")
       t.seconds_per_run);
  Buffer.add_string b "goodput (sim Gbps / native Mbps):\n";
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf "  %-6s sim %6.2f Gbps   native %8.1f Mbps\n" name s
           (List.assoc name t.native_goodput_mbps)))
    t.sim_goodput_gbps;
  Buffer.add_string b "idle-path echo RTT (us):\n";
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf "  %-6s sim %6.1f us     native %8.1f us\n" name s
           (List.assoc name t.native_rtt_us)))
    t.sim_rtt_us;
  Buffer.add_string b "ordinal checks:\n";
  List.iter
    (fun c ->
      Buffer.add_string b (Printf.sprintf "  %-55s %s\n" c.check c.verdict))
    t.checks;
  Buffer.contents b

let to_json t =
  let module Json = Newt_sim.Json in
  let assoc_list key l =
    (key, Json.Obj (List.map (fun (name, v) -> (name, Json.Fixed (3, v))) l))
  in
  let check c =
    Json.Obj
      [ ("check", String c.check); ("sim_hi", Fixed (3, c.sim_hi));
        ("sim_lo", Fixed (3, c.sim_lo)); ("native_hi", Fixed (3, c.native_hi));
        ("native_lo", Fixed (3, c.native_lo)); ("verdict", String c.verdict) ]
  in
  Json.Obj
    [ ("domains", Int t.domains); ("recommended", Int t.recommended);
      ("seconds_per_run", Fixed (2, t.seconds_per_run));
      assoc_list "sim_goodput_gbps" t.sim_goodput_gbps;
      assoc_list "native_goodput_mbps" t.native_goodput_mbps;
      assoc_list "sim_rtt_us" t.sim_rtt_us;
      assoc_list "native_rtt_us" t.native_rtt_us;
      ("checks", List (List.map check t.checks)) ]
