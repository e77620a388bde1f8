let () = ignore (Fix_base.Plant.probe ())
