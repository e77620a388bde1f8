type kind = Sanitizer | Protocol | Tcpfsm

let install = function
  | Sanitizer -> Sanitizer.install ()
  | Protocol -> Protocol.install ()
  | Tcpfsm -> Tcpfsm.install ()

let uninstall = function
  | Sanitizer -> Sanitizer.uninstall ()
  | Protocol -> Protocol.uninstall ()
  | Tcpfsm -> Tcpfsm.uninstall ()

let bracket kinds f =
  List.iter install kinds;
  Fun.protect ~finally:(fun () -> List.iter uninstall (List.rev kinds)) f

let checked ?(drained = false) kind ~title f =
  let result = bracket [ kind ] f in
  let report =
    match kind with
    | Sanitizer -> Sanitizer.report ~title ()
    | Protocol ->
        Protocol.finish ~drained ();
        Protocol.report ~title ()
    | Tcpfsm -> Tcpfsm.report ~title ()
  in
  (result, report)
