(* The exports lint: every value a lib/ module exports must be used
   outside that module, and every optional argument of an exported value
   must be passed by some call site. It reads the .cmti/.cmt files that
   `dune build @check` leaves next to the sources (an executable's .cmt
   comes only from that alias), so it runs in a build directory:

     dune build @check && cd _build/default && tools/exports/exports.exe

   Values are matched by their declaration's unique id (Shape.Uid), read
   off each [Texp_ident], so [open], library aliases and [include] of
   another module resolve to the declaration they name. A module passed
   as a functor argument or packed as a first-class module uses every
   value it exports. An optional argument counts as passed when a call
   writes it ([~x:e], [?x:e], or a wrapper forwarding [?x]), not when
   the type checker fills in [None] for it: an omitted argument, or any
   argument of a function passed as a value.

   Exit 1 lists each export nothing outside its module uses and each
   optional argument no call passes. Exports and optional arguments
   that only test/ uses are counted and listed; they pass. *)

open Typedtree
module Uid = Shape.Uid

(* The directories whose compiled units are read. Exports come from lib/
   only; uses from all of them. *)
let roots = [ "lib"; "bin"; "examples"; "perfbench"; "bench"; "test" ]

let rec compiled dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then compiled path
         else if Filename.check_suffix name ".cmt"
                 || Filename.check_suffix name ".cmti"
         then [ path ]
         else [])

type export = {
  name : string;  (** [Module.value], with the library prefix dropped *)
  loc : Location.t;
  optionals : string list;
}

(* The optional labels of a value's type, in order. *)
let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optionals rest
  | Tarrow (_, _, rest, _) -> optionals rest
  | Tpoly (ty, _) -> optionals ty
  | _ -> []

(* Every value of a signature, submodules included, with its qualified
   name. *)
let rec values prefix (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, _) -> [ (prefix ^ Ident.name id, vd) ]
      | Types.Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          values (prefix ^ Ident.name id ^ ".") sg
      | _ -> [])
    sg

let signature (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Interface sg -> Some sg.sig_type
  | Implementation str -> Some str.str_type
  | _ -> None

let unit_of = function Uid.Item { comp_unit; _ } -> Some comp_unit | _ -> None

(* [Newt_sim__Time] displays as [Time]; the dune wrapper prefix adds
   nothing a reader needs. *)
let display_unit u =
  let rec find i =
    if i + 2 > String.length u then u
    else if String.sub u i 2 = "__" then
      String.sub u (i + 2) (String.length u - i - 2)
    else find (i + 1)
  in
  find 0

let () =
  let files =
    List.concat_map
      (fun root ->
        if Sys.file_exists root then
          List.map (fun f -> (root, f)) (compiled root)
        else [])
      roots
  in
  let units =
    List.map (fun (root, f) -> (root, f, Cmt_format.read_cmt f)) files
  in
  let is_intf f = Filename.check_suffix f ".cmti" in
  let has_intf m =
    List.exists
      (fun (_, f, (c : Cmt_format.cmt_infos)) -> is_intf f && c.cmt_modname = m)
      units
  in
  (* Exports: the interface of each lib/ unit, or its implementation when
     it has no .mli. Values an [include] re-exports belong to the unit
     that declares them. *)
  let exports : (Uid.t, export) Hashtbl.t = Hashtbl.create 1024 in
  let unit_values : (string, Uid.t list) Hashtbl.t = Hashtbl.create 64 in
  (* Inside its own unit a value is referred to by its implementation's
     id, which may equal the id of another value in the interface; map it
     to the interface's. *)
  let impl_to_intf : (Uid.t, Uid.t) Hashtbl.t = Hashtbl.create 1024 in
  let intf_ids = Hashtbl.create 1024 in
  List.iter
    (fun (root, f, (c : Cmt_format.cmt_infos)) ->
      let m = c.cmt_modname in
      match signature c with
      | Some sg when root = "lib" && (is_intf f || not (has_intf m)) ->
          let vs = values "" sg in
          Hashtbl.replace unit_values m
            (List.map (fun (_, vd) -> vd.Types.val_uid) vs);
          List.iter
            (fun (name, (vd : Types.value_description)) ->
              Hashtbl.replace intf_ids (m, name) vd.val_uid;
              if unit_of vd.val_uid = Some m then
                Hashtbl.replace exports vd.val_uid
                  {
                    name = display_unit m ^ "." ^ name;
                    loc = vd.val_loc;
                    optionals = optionals vd.val_type;
                  })
            vs
      | _ -> ())
    units;
  List.iter
    (fun (root, f, (c : Cmt_format.cmt_infos)) ->
      match signature c with
      | Some sg when root = "lib" && not (is_intf f) ->
          List.iter
            (fun (name, (vd : Types.value_description)) ->
              match Hashtbl.find_opt intf_ids (c.cmt_modname, name) with
              | Some u when not (Uid.equal u vd.val_uid) ->
                  Hashtbl.replace impl_to_intf vd.val_uid u
              | _ -> ())
            (values "" sg)
      | _ -> ())
    units;
  let canon ~unit_name u =
    if unit_of u = Some unit_name then
      Option.value (Hashtbl.find_opt impl_to_intf u) ~default:u
    else u
  in
  (* Uses: which roots use each value from outside its unit, and which
     roots pass each optional argument. *)
  let users : (Uid.t, string) Hashtbl.t = Hashtbl.create 4096 in
  let passed : (Uid.t * string, string) Hashtbl.t = Hashtbl.create 256 in
  let use ~unit_name ~root u =
    if unit_of u <> Some unit_name then Hashtbl.add users u root
  in
  (* A module passed whole: a lib/ unit named by its path, or through its
     wrapper ([Newt_sim.Time] is the unit [Newt_sim__Time]). *)
  let rec pass_module ~unit_name ~root (m : module_expr) =
    match m.mod_desc with
    | Tmod_constraint (m, _, _, _) -> pass_module ~unit_name ~root m
    | Tmod_ident (p, _) ->
        let name =
          match p with
          | Pdot (Pident lib, m) -> Ident.name lib ^ "__" ^ m
          | p -> Path.name p
        in
        List.iter
          (use ~unit_name ~root)
          (Option.value (Hashtbl.find_opt unit_values name) ~default:[])
    | _ -> ()
  in
  (* The [None] the type checker supplies for an omitted optional
     argument has no location. (A function passed as a value is applied
     through a fresh variable, so none of its optional arguments is
     passed.) *)
  let filled_in (e : expression) =
    match e.exp_desc with
    | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc = Location.none
    | _ -> false
  in
  List.iter
    (fun (root, f, (c : Cmt_format.cmt_infos)) ->
      let unit_name = c.cmt_modname in
      let expr (it : Tast_iterator.iterator) (e : expression) =
        (match e.exp_desc with
        | Texp_ident (_, _, vd) -> use ~unit_name ~root vd.val_uid
        | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
            List.iter
              (function
                | Asttypes.Optional l, Some a when not (filled_in a) ->
                    Hashtbl.add passed (canon ~unit_name vd.val_uid, l) root
                | _ -> ())
              args
        | Texp_pack m -> pass_module ~unit_name ~root m
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let module_expr (it : Tast_iterator.iterator) (m : module_expr) =
        (match m.mod_desc with
        | Tmod_apply (_, arg, _) -> pass_module ~unit_name ~root arg
        | _ -> ());
        Tast_iterator.default_iterator.module_expr it m
      in
      let it = { Tast_iterator.default_iterator with expr; module_expr } in
      match c.cmt_annots with
      | Implementation str when not (is_intf f) -> it.structure it str
      | _ -> ())
    units;
  (* The verdicts, in source order. *)
  let pos (e : export) = (e.loc.loc_start.pos_fname, e.loc.loc_start.pos_lnum) in
  let at e = Printf.sprintf "%s:%d" (fst (pos e)) (snd (pos e)) in
  let sorted =
    Hashtbl.fold (fun u e acc -> (u, e) :: acc) exports []
    |> List.sort (fun (_, a) (_, b) -> compare (pos a, a.name) (pos b, b.name))
  in
  let only_tests roots = roots <> [] && List.for_all (( = ) "test") roots in
  let unused = ref [] and test_only = ref [] in
  let never = ref [] and test_opts = ref [] in
  List.iter
    (fun (u, e) ->
      let by = Hashtbl.find_all users u in
      if by = [] then unused := e :: !unused
      else begin
        if only_tests by then test_only := e :: !test_only;
        List.iter
          (fun l ->
            let by = Hashtbl.find_all passed (u, l) in
            let o = (e, l) in
            if by = [] then never := o :: !never
            else if only_tests by then test_opts := o :: !test_opts)
          e.optionals
      end)
    sorted;
  let list title show xs =
    Printf.printf "%s: %d\n" title (List.length xs);
    List.iter (fun x -> print_endline ("  " ^ show x)) (List.rev xs)
  in
  let show e = Printf.sprintf "%s: %s" (at e) e.name in
  let show_opt (e, l) = Printf.sprintf "%s: %s ?%s" (at e) e.name l in
  Printf.printf "exported values: %d, optional arguments: %d\n"
    (List.length sorted)
    (List.fold_left (fun n (_, e) -> n + List.length e.optionals) 0 sorted);
  list "exports used only by test/" show !test_only;
  list "optional arguments passed only by test/" show_opt !test_opts;
  list "exports nothing outside their module uses" show !unused;
  list "optional arguments no call passes" show_opt !never;
  if !unused <> [] || !never <> [] then exit 1
