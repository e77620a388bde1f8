val of_ms : int -> int
(** Used only as [Fix_hw.Time.of_ms]: a library alias through
    [include]. *)
