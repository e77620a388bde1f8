let wrapper ?x () = Plant.inner ?x ()
