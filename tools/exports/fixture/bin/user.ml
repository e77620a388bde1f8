open Fix_base.Plant
module Table = Hashtbl.Make (Fix_base.Key)

let () =
  let order = (module Fix_base.Order : Set.OrderedType with type t = int) in
  let module O = (val order) in
  List.iter each [ opened (); Fix_hw.Time.of_ms 1; O.compare 1 2 ];
  ignore (Table.create 1 : unit Table.t);
  ignore (knob () + Fix_base.Wrap.wrapper ~x:1 ())
