(** Rich pointers.

    A rich pointer names a chunk of data inside a shared pool: which
    pool, which slot, at what offset, and how long (Section IV). It also
    carries the slot's generation number so that stale references — e.g.
    a request resubmitted after a crash racing with a free — are detected
    instead of silently reading reused memory. Packets travel through
    the stack as {e chains} of rich pointers (Section V-C). *)

type t = {
  pool : int;  (** Pool identifier (unique per machine). *)
  slot : int;  (** Slot index within the pool. *)
  off : int;  (** Byte offset of the chunk within the slot. *)
  len : int;  (** Chunk length in bytes. *)
  gen : int;  (** Slot generation at allocation time. *)
}

type chain = t list
(** A packet as a chain of chunks, headers first. *)

val chain_len : chain -> int
(** Total byte length of a chain. *)
