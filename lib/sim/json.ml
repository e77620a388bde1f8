type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let strings l = List (List.map (fun s -> String s) l)
let ints fields = Obj (List.map (fun (k, n) -> (k, Int n)) fields)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Fixed (d, x) when Float.is_finite x -> Printf.sprintf "%.*f" d x
  | Fixed _ -> "null"
  | String s -> quote s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj fields ->
      let field (k, v) = quote k ^ ":" ^ to_string v in
      "{" ^ String.concat "," (List.map field fields) ^ "}"
