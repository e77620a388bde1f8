type violation = {
  check : string;
  subject : string;
  culprit : string;
  detail : string;
}

type t = {
  title : string;
  checks : (string * int) list;
  violations : violation list;
}

let ok t = t.violations = []

(* One exit-code convention across verify / mcheck / race so CI and
   bench-smoke can treat every checker alike: 0 clean, 1 violations.
   (2 is reserved by the CLI for unusable configurations.) *)
let exit_code t = if ok t then 0 else 1

let merge ~title reports =
  let checks =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (name, n) ->
            match List.assoc_opt name acc with
            | Some m -> (name, m + n) :: List.remove_assoc name acc
            | None -> acc @ [ (name, n) ])
          acc r.checks)
      [] reports
  in
  {
    title;
    checks;
    violations = List.concat_map (fun r -> r.violations) reports;
  }

let pp fmt t =
  Format.fprintf fmt "verifier: %s@." t.title;
  List.iter
    (fun (name, n) ->
      Format.fprintf fmt "  %-18s %4d subject%s checked@." name n
        (if n = 1 then "" else "s"))
    t.checks;
  (match t.violations with
  | [] -> Format.fprintf fmt "  OK: no violations@."
  | vs ->
      Format.fprintf fmt "  %d VIOLATION%s:@." (List.length vs)
        (if List.length vs = 1 then "" else "S");
      List.iter
        (fun v ->
          Format.fprintf fmt "  [%s] %s — culprit %s: %s@." v.check v.subject
            v.culprit v.detail)
        vs);
  ()

let to_string t = Format.asprintf "%a" pp t

module Json = Newt_sim.Json

let violation_json v =
  Json.Obj
    [ ("check", String v.check); ("subject", String v.subject);
      ("culprit", String v.culprit); ("detail", String v.detail) ]

let to_json t =
  Json.Obj
    [ ("title", String t.title); ("ok", Bool (ok t));
      ("checks", Json.ints t.checks);
      ("violations", List (List.map violation_json t.violations)) ]
