let opened () = 1
let inner ?(x = 0) () = x
let each ?(verbose = false) n = if verbose then print_int n
let knob ?(scale = 1) () = scale
let unused = 2
let probe () = 3
