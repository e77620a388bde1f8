(* Two backings behind one channel type:

   - [Sim]: the single-threaded FIFO used by every discrete-event
     run. Plain mutable fields, notify only on empty-to-nonempty (the
     MONITOR/MWAIT model). Messages wait in a {!Newt_sim.Fifo}, which
     grows with the occupancy high-water mark (never past the
     capacity's power of two) and fills every slot a receive or a
     reset frees with the first message ever sent: a queued message
     holds no cell of its own, and a received one is not kept
     reachable.
   - [Ring]: a real {!Spsc_queue} between two OCaml domains, used by the
     native runtime. Counters are atomics, and notify fires on *every*
     successful push — the was-empty optimization is racy across
     domains (consumer pops the last element between our [is_empty] and
     [push] and parks; nobody rings). The consumer-side doorbell
     dedupes, so the extra notifications cost one atomic exchange. *)

module Fifo = Newt_sim.Fifo

type 'a backing =
  | Sim of {
      queue : 'a Fifo.t;
      mutable down : bool;
      mutable sent : int;
      mutable dropped : int;
      mutable max_occ : int;
    }
  | Ring of {
      ring : 'a Spsc_queue.t;
      down : bool Atomic.t;
      sent : int Atomic.t;
      dropped : int Atomic.t;
      max_occ : int Atomic.t;
    }

type 'a t = {
  id : int;
  capacity : int;
  backing : 'a backing;
  mutable notify : (unit -> unit) option;
      (* Installed once at wiring time, before any domain is spawned;
         published to other domains by [Domain.spawn]. *)
}

let create ?(capacity = 512) ~id () =
  assert (capacity > 0);
  {
    id;
    capacity;
    backing = Sim { queue = Fifo.create (); down = false; sent = 0; dropped = 0; max_occ = 0 };
    notify = None;
  }

let create_native ?(capacity = 512) ~id () =
  let ring = Spsc_queue.create ~id ~capacity () in
  {
    id;
    capacity = Spsc_queue.capacity ring;
    backing =
      Ring
        {
          ring;
          down = Atomic.make false;
          sent = Atomic.make 0;
          dropped = Atomic.make 0;
          max_occ = Atomic.make 0;
        };
    notify = None;
  }

let id t = t.id
let capacity t = t.capacity
let send t x =
  match t.backing with
  | Sim s ->
      if s.down || Fifo.length s.queue >= t.capacity then begin
        s.dropped <- s.dropped + 1;
        false
      end
      else begin
        let was_empty = Fifo.is_empty s.queue in
        Fifo.push s.queue x;
        s.sent <- s.sent + 1;
        if Fifo.length s.queue > s.max_occ then s.max_occ <- Fifo.length s.queue;
        if was_empty then Option.iter (fun f -> f ()) t.notify;
        true
      end
  | Ring r ->
      if Atomic.get r.down then begin
        Atomic.incr r.dropped;
        false
      end
      else if Spsc_queue.try_push r.ring x then begin
        Atomic.incr r.sent;
        let occ = Spsc_queue.length r.ring in
        (* Producer-only write: a plain max race-free on this side. *)
        if occ > Atomic.get r.max_occ then Atomic.set r.max_occ occ;
        Option.iter (fun f -> f ()) t.notify;
        true
      end
      else begin
        Atomic.incr r.dropped;
        false
      end

let recv t =
  match t.backing with
  | Sim s -> if s.down || Fifo.is_empty s.queue then None else Some (Fifo.pop s.queue)
  | Ring r -> if Atomic.get r.down then None else Spsc_queue.try_pop r.ring

let peek t =
  match t.backing with
  | Sim s -> if s.down || Fifo.is_empty s.queue then None else Some (Fifo.peek s.queue)
  | Ring r -> if Atomic.get r.down then None else Spsc_queue.peek r.ring

let length t =
  match t.backing with
  | Sim s -> Fifo.length s.queue
  | Ring r -> Spsc_queue.length r.ring

let is_empty t =
  match t.backing with
  | Sim s -> Fifo.is_empty s.queue
  | Ring r -> Spsc_queue.is_empty r.ring

let set_notify t f = t.notify <- Some f

let tear_down t =
  match t.backing with
  | Sim s ->
      s.down <- true;
      Fifo.clear s.queue
  | Ring r ->
      (* Queued elements are abandoned in place: draining a live SPSC
         ring from a third party would violate single-consumer. Native
         runs do not inject crashes, so this only stops traffic. *)
      Atomic.set r.down true

let revive t =
  match t.backing with
  | Sim s ->
      s.down <- false;
      Fifo.clear s.queue
  | Ring r -> Atomic.set r.down false

let is_down t =
  match t.backing with
  | Sim s -> s.down
  | Ring r -> Atomic.get r.down

let sent_total t =
  match t.backing with Sim s -> s.sent | Ring r -> Atomic.get r.sent

let dropped_total t =
  match t.backing with Sim s -> s.dropped | Ring r -> Atomic.get r.dropped

let max_occupancy t =
  match t.backing with Sim s -> s.max_occ | Ring r -> Atomic.get r.max_occ
