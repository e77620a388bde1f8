val wrapper : ?x:int -> unit -> int
