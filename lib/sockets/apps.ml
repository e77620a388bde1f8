module Engine = Newt_sim.Engine
module Exec = Newt_sim.Exec
module Time = Newt_sim.Time
module Machine = Newt_hw.Machine
module Cpu = Newt_hw.Cpu

(* Deferred work goes through the machine's [Exec] backend, pinned to
   the application's core, so these workloads run identically under the
   simulator and the native runtime. *)
let sched machine app delay k =
  let (_cancel : unit -> unit) =
    Exec.schedule (Machine.exec machine)
      ~core:(Cpu.id app.Newt_stack.Syscall_srv.app_core)
      delay k
  in
  ()
module Sc = Newt_stack.Syscall_srv
module Addr = Newt_net.Addr

module Iperf = struct
  type t = {
    machine : Machine.t;
    sc : Sc.t;
    app : Sc.app;
    dst : Addr.Ipv4.t;
    port : int;
    write_buf : Bytes.t;
    pace : Time.cycles;
    until : Time.cycles;
    mutable bytes_sent : int;
    mutable connects : int;
    mutable errors : int;
    mutable running : bool;
  }

  let bytes_sent t = t.bytes_sent
  let connects t = t.connects
  let errors t = t.errors

  let now t = Exec.now (Machine.exec t.machine)

  let rec session t =
    if now t < t.until && t.running then
      Socket_api.tcp_socket t.sc t.app (fun conn ->
          Socket_api.connect conn ~dst:t.dst ~port:t.port (fun result ->
              match result with
              | `Ok ->
                  t.connects <- t.connects + 1;
                  pump t conn
              | `Error _ ->
                  t.errors <- t.errors + 1;
                  retry_later t))

  and pump t conn =
    if now t >= t.until then Socket_api.close conn (fun () -> t.running <- false)
    else begin
      Socket_api.send conn t.write_buf (fun result ->
          match result with
          | `Sent n ->
              t.bytes_sent <- t.bytes_sent + n;
              if t.pace = 0 then pump t conn
              else sched t.machine t.app t.pace (fun () -> pump t conn)
          | `Error _ ->
              t.errors <- t.errors + 1;
              (* Connection died (e.g. a TCP server crash): iperf is
                 restarted by the harness. *)
              retry_later t)
    end

  and retry_later t =
    sched t.machine t.app (Time.of_seconds 0.25) (fun () -> session t)

  let start machine ~sc ~app ~dst ~port ?(write_size = 8192) ?(pace = 0) ~until () =
    let t =
      {
        machine;
        sc;
        app;
        dst;
        port;
        (* Allocated once and never mutated: every write shares it. *)
        write_buf = Bytes.make write_size 'i';
        pace;
        until;
        bytes_sent = 0;
        connects = 0;
        errors = 0;
        running = true;
      }
    in
    session t;
    t
end

module Echo_listener = struct
  let rec serve_conn conn =
    Socket_api.recv conn ~max:65536 (fun result ->
        match result with
        | `Data data ->
            if Bytes.length data > 0 then
              Socket_api.send conn data (fun _ -> serve_conn conn)
            else serve_conn conn
        | `Timeout -> serve_conn conn
        | `Eof -> Socket_api.close conn (fun () -> ())
        | `Error _ -> ())

  let start sc ~app ~port =
    Socket_api.tcp_socket sc app (fun listener ->
        Socket_api.bind listener ~port (fun _ ->
            Socket_api.listen listener (fun _ ->
                let rec accept_loop () =
                  Socket_api.accept listener (fun result ->
                      match result with
                      | `Conn conn ->
                          serve_conn conn;
                          accept_loop ()
                      | `Error _ ->
                          (* Listener gone (TCP server crash). The
                             restarted TCP server re-opens the listening
                             socket itself; keep accepting. *)
                          accept_loop ())
                in
                accept_loop ())))
end

module Ssh_session = struct
  type t = {
    machine : Machine.t;
    app : Sc.app;
    mutable exchanges_ok : int;
    mutable broken : bool;
    mutable seq : int;
  }

  (* One exchange every [period]. The I/O timeout is generous: IP and
     driver crashes take the link down for over a second; TCP rides it
     out and the session survives. *)
  let period = Time.of_seconds 0.2
  let io_timeout = Time.of_seconds 4.0

  let exchanges_ok t = t.exchanges_ok
  let broken t = t.broken

  let rec exchange t conn =
    if not t.broken then begin
      t.seq <- t.seq + 1;
      let payload = Bytes.of_string (Printf.sprintf "keystroke-%06d" t.seq) in
      Socket_api.send conn payload (fun send_result ->
          match send_result with
          | `Error _ -> t.broken <- true
          | `Sent _ ->
              Socket_api.recv conn ~max:1024 ~timeout:io_timeout (fun recv_result ->
                  match recv_result with
                  | `Data _ ->
                      t.exchanges_ok <- t.exchanges_ok + 1;
                      sched t.machine t.app period (fun () ->
                          exchange t conn)
                  | `Timeout | `Eof | `Error _ -> t.broken <- true))
    end

  let start machine ~sc ~app ~dst ~port () =
    let t =
      {
        machine;
        app;
        exchanges_ok = 0;
        broken = false;
        seq = 0;
      }
    in
    Socket_api.tcp_socket sc app (fun conn ->
        Socket_api.connect conn ~dst ~port (fun result ->
            match result with
            | `Ok -> exchange t conn
            | `Error _ -> t.broken <- true));
    t
end

module Rpc_churn = struct
  module Stats = Newt_sim.Stats

  (* One open-loop worker: a new RPC starts every [pace] cycles no
     matter how the previous ones are doing — exactly the load model
     under which queueing delay shows up as tail latency instead of a
     quietly reduced request rate. [max_outstanding] only bounds memory
     when the stack wedges completely; shed starts are counted, never
     silently absorbed into the schedule. *)
  type t = {
    machine : Machine.t;
    sc : Sc.t;
    app : Sc.app;
    dst : Addr.Ipv4.t;
    port : int;
    pace : Time.cycles;
    until : Time.cycles;
    payload : int;
    connect_hist : Stats.Hist.t;
    request_hist : Stats.Hist.t;
    mutable started : int;
    mutable completed : int;
    mutable errors : int;
    mutable shed : int;
    mutable outstanding : int;
  }

  let started t = t.started
  let completed t = t.completed
  let errors t = t.errors
  let shed t = t.shed
  let outstanding t = t.outstanding
  let connect_hist t = t.connect_hist
  let request_hist t = t.request_hist

  let now t = Exec.now (Machine.exec t.machine)
  let to_micros c = Time.to_seconds c *. 1e6

  let finish t conn ok =
    t.outstanding <- t.outstanding - 1;
    if ok then t.completed <- t.completed + 1 else t.errors <- t.errors + 1;
    Socket_api.close conn (fun () -> ())

  (* connect -> send -> recv the echo -> close: the whole short-RPC
     lifecycle, timed from the connect call (so listen-queue and
     handshake delay are part of the request latency, as a client
     would experience it). *)
  let rpc t =
    t.started <- t.started + 1;
    t.outstanding <- t.outstanding + 1;
    let t0 = now t in
    Socket_api.tcp_socket t.sc t.app (fun conn ->
        Socket_api.connect conn ~dst:t.dst ~port:t.port (fun result ->
            match result with
            | `Error _ -> finish t conn false
            | `Ok ->
                Stats.Hist.record t.connect_hist (to_micros (now t - t0));
                let data = Bytes.make t.payload 'r' in
                Socket_api.send conn data (fun result ->
                    match result with
                    | `Error _ -> finish t conn false
                    | `Sent _ ->
                        let rec await got =
                          Socket_api.recv conn ~max:t.payload
                            ~timeout:(Time.of_seconds 4.0) (fun result ->
                              match result with
                              | `Data d ->
                                  let got = got + Bytes.length d in
                                  if got >= t.payload then begin
                                    Stats.Hist.record t.request_hist
                                      (to_micros (now t - t0));
                                    finish t conn true
                                  end
                                  else await got
                              | `Timeout | `Eof | `Error _ ->
                                  finish t conn false)
                        in
                        await 0)))

  let max_outstanding = 256

  let rec tick t =
    if now t < t.until then begin
      if t.outstanding >= max_outstanding then t.shed <- t.shed + 1
      else rpc t;
      sched t.machine t.app t.pace (fun () -> tick t)
    end

  let start machine ~sc ~app ~dst ~port ~pace ?(payload = 256) ~until () =
    (* A zero pace would reschedule the tick at the same instant
       forever, and simulated time would never reach [until]. *)
    if pace <= 0 then invalid_arg "Rpc_churn.start: pace must be positive";
    let t =
      {
        machine;
        sc;
        app;
        dst;
        port;
        pace;
        until;
        payload;
        connect_hist = Stats.Hist.create ();
        request_hist = Stats.Hist.create ();
        started = 0;
        completed = 0;
        errors = 0;
        shed = 0;
        outstanding = 0;
      }
    in
    tick t;
    t
end

module Dns_client = struct
  type t = {
    machine : Machine.t;
    timeout : Time.cycles;
    mutable queries : int;
    mutable answered : int;
    mutable consecutive_failures : int;
    mutable max_consecutive_failures : int;
    mutable socket_reopens : int;
  }

  let queries t = t.queries
  let answered t = t.answered
  let max_consecutive_failures t = t.max_consecutive_failures
  let socket_reopens t = t.socket_reopens

  let period = Time.of_seconds 0.25

  let rec query_loop t sc app dst port conn =
    t.queries <- t.queries + 1;
    let id = t.queries land 0xffff in
    let payload = Newt_net.Dns.encode (Newt_net.Dns.query ~id "www.vu.nl") in
    let fail () =
      t.consecutive_failures <- t.consecutive_failures + 1;
      if t.consecutive_failures > t.max_consecutive_failures then
        t.max_consecutive_failures <- t.consecutive_failures
    in
    Socket_api.send conn payload (fun send_result ->
        match send_result with
        | `Error _ ->
            fail ();
            schedule_next t sc app dst port conn
        | `Sent _ ->
            (* Receive until our answer arrives, draining stale answers
               to earlier queries (they pile up behind an outage), like
               any real resolver. [attempts] bounds the drain. *)
            let rec await attempts =
              Socket_api.recv conn ~max:1024 ~timeout:t.timeout (fun recv_result ->
                  match recv_result with
                  | `Data response -> (
                      match Newt_net.Dns.decode response with
                      | Some m
                        when m.Newt_net.Dns.is_response
                             && m.Newt_net.Dns.id = id
                             && m.Newt_net.Dns.answers <> [] ->
                          t.answered <- t.answered + 1;
                          t.consecutive_failures <- 0;
                          schedule_next t sc app dst port conn
                      | Some m
                        when m.Newt_net.Dns.is_response
                             && m.Newt_net.Dns.id <> id
                             && attempts > 0 ->
                          (* A late answer to an earlier query: drop it
                             and keep waiting for ours. *)
                          await (attempts - 1)
                      | Some _ | None ->
                          fail ();
                          schedule_next t sc app dst port conn)
                  | `Timeout | `Eof | `Error _ ->
                      fail ();
                      schedule_next t sc app dst port conn)
            in
            await 8)

  and schedule_next t sc app dst port conn =
    sched t.machine app period (fun () ->
        query_loop t sc app dst port conn)

  let start machine ~sc ~app ~dst ?timeout () =
    let port = 53 in
    let timeout = match timeout with Some x -> x | None -> Time.of_seconds 1.0 in
    let t =
      {
        machine;
        timeout;
        queries = 0;
        answered = 0;
        consecutive_failures = 0;
        max_consecutive_failures = 0;
        socket_reopens = 0;
      }
    in
    Socket_api.udp_socket sc app (fun conn ->
        Socket_api.connect conn ~dst ~port (fun result ->
            match result with
            | `Ok -> query_loop t sc app dst port conn
            | `Error _ -> t.socket_reopens <- t.socket_reopens + 1));
    t
end
