type cycles = int

let cycles_per_second = 1_900_000_000

let of_seconds s = int_of_float (s *. float_of_int cycles_per_second)
let of_micros us = of_seconds (us *. 1e-6)
let to_seconds c = float_of_int c /. float_of_int cycles_per_second
let to_millis c = to_seconds c *. 1e3
