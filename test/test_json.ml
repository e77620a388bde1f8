(* Tests for the JSON value printer. *)

module Json = Newt_sim.Json

let render = Json.to_string

let test_escaping () =
  Alcotest.(check string)
    "quote, backslash, newline, tab, control byte"
    {|"a\"b\\c\nd\te\u0001f"|}
    (render (String "a\"b\\c\nd\te\001f"));
  Alcotest.(check string) "other bytes pass through" {|"é/<>"|}
    (render (String "é/<>"))

let test_fixed_matches_printf () =
  List.iter
    (fun d ->
      List.iter
        (fun x ->
          Alcotest.(check string)
            (Printf.sprintf "%h at %d digits" x d)
            (Printf.sprintf "%.*f" d x)
            (render (Fixed (d, x))))
        (* Halfway cases at the cut: 2.5 and 3.5 at 0 digits, 0.125 at 2. *)
        [ 0.; 2.5; 3.5; -2.5; 0.125; -0.125; 1.0005; 3922.; -17.25; 1e9 /. 7. ])
    [ 0; 1; 2; 3 ];
  Alcotest.(check string) "golden shape" "3922.0" (render (Fixed (1, 3922.)))

let test_non_finite_is_null () =
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%f" x) "null" (render (Fixed (2, x))))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_empty_containers () =
  Alcotest.(check string) "empty list" "[]" (render (List []));
  Alcotest.(check string) "empty object" "{}" (render (Obj []))

let test_nested () =
  Alcotest.(check string) "nested object, keys in order"
    {|{"ok":false,"n":-3,"v":null,"in":{"trace":["x","y"],"r":0.50}}|}
    (render
       (Obj
          [
            ("ok", Bool false); ("n", Int (-3)); ("v", Null);
            ("in", Obj [ ("trace", Json.strings [ "x"; "y" ]); ("r", Fixed (2, 0.5)) ]);
          ]))

let suite =
  [
    ("string escaping", `Quick, test_escaping);
    ("fixed equals %.*f for 0-3 digits", `Quick, test_fixed_matches_printf);
    ("nan and infinity print null", `Quick, test_non_finite_is_null);
    ("empty list and object", `Quick, test_empty_containers);
    ("nested object", `Quick, test_nested);
  ]
