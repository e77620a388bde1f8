(** One bracket for the dynamic checkers: install, run, uninstall,
    report. *)

type kind = Sanitizer | Protocol | Tcpfsm

val bracket : kind list -> (unit -> 'a) -> 'a
(** Install the checkers in order, run the thunk, and uninstall them in
    reverse order, also when it raises. A checker installed afresh
    starts from a clean state; uninstalling keeps what it saw. *)

val checked : ?drained:bool -> kind -> title:string -> (unit -> 'a) -> 'a * Report.t
(** [bracket [kind]] around the thunk, then the checker's report under
    [title]. [drained] (protocol checker only) first closes its trace
    strictly: the run's tail quiesced, so an open obligation is a
    violation ({!Protocol.finish}). *)
