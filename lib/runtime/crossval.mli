(** Sim-vs-native cross-validation.

    Re-runs the simulator's Section IV ordering claims — the Table II
    channel-cost ablations (kernel IPC per message, per-hop payload
    copies) and the park-vs-poll wake-up latency trade — under native
    domain execution, and checks that sign and rank order agree.
    Absolute rates are incomparable (modelled Opteron cycles vs OCaml
    on the current machine); ordinal agreement is the claim. *)

type check = {
  check : string;
  sim_hi : float;
  sim_lo : float;  (** The simulator predicts hi > lo. *)
  native_hi : float;
  native_lo : float;
  verdict : string;
      (** ["match"], ["inconclusive (within 5% tolerance)"], or
          ["MISMATCH ..."]. *)
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

val run : domains:int -> seconds:float -> unit -> t
(** Four native runs (base, kipc, copy, poll) of [seconds] each plus
    the capacity-model and latency-ablation evaluations. *)

val to_string : t -> string
val to_json : t -> Newt_sim.Json.t
