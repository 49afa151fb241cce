(* The [serve] workload's traffic: a [dpcd] (the daemon core,
   {!Dpc_serve.Server}) in a forked child process, and an open-loop
   generator with seeded Poisson arrivals feeding at most two
   connections. *)

module Server = Dpc_serve.Server
module Client = Dpc_serve.Client
module Protocol = Dpc_serve.Protocol
module Json = Dpc_prof.Json
module Framing = Dpc_util.Framing

type daemon = { pid : int; path : string; report : Unix.file_descr }

(* What the daemon process reports when its loop exits. *)
type daemon_stats = { gc : Stat.gc; peak_rss_mb : float }

(* Fork the daemon and return once it answers a ping.  No other domain
   may be running (a requirement of [Unix.fork]).  The child dies by
   [SIGALRM] after [lifetime] seconds should the parent never stop it;
   on a clean stop it writes its counters to a pipe. *)
let start ~lifetime path =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    ignore (Unix.alarm lifetime);
    (try
       let server = Server.create (Server.config path) in
       Server.install_signal_handlers server;
       Server.run server;
       let g = Stat.gc_now () in
       let line =
         Printf.sprintf "%h %h %d %h\n" g.Stat.minor_mw g.Stat.promoted_mw
           g.Stat.majors (Stat.peak_rss_mb ())
       in
       ignore (Unix.write_substring wr line 0 (String.length line))
     with e -> prerr_endline ("dpcd: " ^ Printexc.to_string e));
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let d = { pid; path; report = rd } in
    if not (Client.wait_ready ~attempts:5000 ~every:0.001 path) then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith "daemon did not come up"
    end;
    d

(* Stop the daemon (SIGTERM drains and exits its loop), wait for it, and
   return what it reported. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let ic = Unix.in_channel_of_descr d.report in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] d.pid);
  try
    Scanf.sscanf line "%h %h %d %h" (fun minor_mw promoted_mw majors peak_rss_mb ->
        Some { gc = { Stat.minor_mw; promoted_mw; majors }; peak_rss_mb })
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

(* One request as the client saw it.  Times are absolute clock readings;
   [due] is when the generator was meant to submit it, [queued] when it
   did, [sent] when a connection picked it up. *)
type 'a reply = {
  index : int;
  due : float;
  queued : float;
  sent : float;
  done_ : float;
  scenario_ends : (float * float) list;
      (** per outcome: arrival time and server-side wall clock *)
  records : 'a list;  (** what [keep] made of each streamed outcome record *)
  failed : int;  (** scenarios that errored, or all of them on refusal *)
}

(* A connection of the open loop, and the request it has in flight. *)
type 'a inflight = {
  id : string;
  index : int;
  due : float;
  queued : float;
  sent : float;
  size : int;
  mutable ends : (float * float) list;
  mutable outcomes : 'a list;
}

type 'a conn = { fd : Unix.file_descr; framing : Framing.t; mutable busy : 'a inflight option }

(* Open loop: request [i] falls due at [t0 +. arrivals.(i)] and is queued;
   each of [conns] connections takes the oldest queued request when it
   has none in flight.  [request i] gives the scenarios of request [i];
   [keep] reduces each streamed outcome record, as it arrives, to what
   the caller needs, so the client's heap stays small.
   One thread multiplexes the due times and the connections with
   [select].  With a worker domain per connection, a reply could wait
   for the other domains to join a stop-the-world collection, and five
   seeds spread p99 latency by 27%; with one thread, by 12%.  Returns
   the replies in index order. *)
let open_loop ~path ~conns ~arrivals ~request ~keep =
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; framing = Framing.create (); busy = None }
  in
  let cs = List.init conns (fun _ -> connect ()) in
  let queue = Queue.create () and replies = ref [] in
  let buf = Bytes.create 65536 in
  let n = Array.length arrivals and next = ref 0 in
  let t0 = Stat.now () +. 0.01 in
  let finish c (f : _ inflight) ~failed =
    c.busy <- None;
    replies :=
      { index = f.index; due = f.due; queued = f.queued; sent = f.sent;
        done_ = Stat.now (); scenario_ends = List.rev f.ends;
        records = List.rev f.outcomes; failed }
      :: !replies
  in
  let event c (f : _ inflight) line =
    match Protocol.event_of_string line with
    | Ok (Protocol.Outcome o) when o.id = f.id ->
      f.ends <- (Stat.now (), o.elapsed_s) :: f.ends;
      f.outcomes <- keep o.outcome :: f.outcomes
    | Ok (Protocol.Done d) when d.id = f.id -> finish c f ~failed:(d.failed + d.skipped)
    | Ok (Protocol.Error_event e) when e.id = f.id ->
      f.outcomes <- [];
      finish c f ~failed:f.size
    | Ok _ -> ()
    | Error e -> failwith ("open loop: bad frame: " ^ e)
  in
  let receive c =
    match (c.busy, Unix.read c.fd buf 0 (Bytes.length buf)) with
    | _, 0 | None, _ -> failwith "open loop: the daemon closed a connection"
    | Some f, len ->
      List.iter
        (fun line -> match c.busy with Some f' when f' == f -> event c f line | _ -> ())
        (Framing.feed c.framing buf ~len)
  in
  let dispatch () =
    List.iter
      (fun c ->
        if c.busy = None && not (Queue.is_empty queue) then begin
          let index, due, queued = Queue.pop queue in
          let scenarios = request index in
          let id = Printf.sprintf "r%d" index in
          Protocol.write_frame c.fd
            (Protocol.request_to_json (Protocol.Sweep { id; scenarios; timeout_s = None }));
          c.busy <-
            Some { id; index; due; queued; sent = Stat.now (); size = List.length scenarios;
                   ends = []; outcomes = [] }
        end)
      cs
  in
  let busy () = List.filter (fun c -> c.busy <> None) cs in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) cs)
    (fun () ->
      while !next < n || not (Queue.is_empty queue) || busy () <> [] do
        let now = Stat.now () in
        while !next < n && t0 +. arrivals.(!next) <= now do
          Queue.add (!next, t0 +. arrivals.(!next), now) queue;
          incr next
        done;
        dispatch ();
        let timeout =
          if !next < n then Float.max 0.0 (t0 +. arrivals.(!next) -. Stat.now ()) else -1.0
        in
        let fds = List.map (fun c -> c.fd) (busy ()) in
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then receive c) cs
      done;
      List.sort (fun (a : _ reply) b -> compare a.index b.index) !replies)
