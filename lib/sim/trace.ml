type entry = { at : Time.cycles; subsystem : string; message : string }

type t = { capacity : int; q : entry Queue.t }

let create ?(capacity = 65536) () =
  assert (capacity > 0);
  { capacity; q = Queue.create () }

let record t ~at ~subsystem message =
  Queue.push { at; subsystem; message } t.q;
  if Queue.length t.q > t.capacity then ignore (Queue.pop t.q)

let entries t = List.of_seq (Queue.to_seq t.q)

let find t ~subsystem =
  List.filter (fun e -> String.equal e.subsystem subsystem) (entries t)
