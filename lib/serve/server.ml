module Context = Mechaml_obs.Context
module Flight = Mechaml_obs.Flight
module Json = Mechaml_obs.Json
module Log = Mechaml_obs.Log
module Metrics = Mechaml_obs.Metrics
module Cache = Mechaml_engine.Cache
module Http = Mechaml_wire.Http

let m_connections =
  Metrics.counter "serve_connections_total" ~help:"TCP connections accepted."

type config = {
  host : string;
  port : int;
  workers : int;
  handlers : int;
  queue_bound : int;
  inflight_cap : int;
  weights : (string * int) list;
  cache_capacity : int option;
  snapshot : string option;
  snapshot_every_s : float option;
  job_deadline_s : float option;
  wal : string option;
  io_timeout_s : float option;
  max_pending : int;
  quarantine_strikes : int option;
  quarantine_ttl_s : float option;
  slo_thresholds : (string * float) list;
  slo_objective : float option;
  flight_size : int option;
  flight_dump : string option;
  sharding : Mechaml_ts.Shard.config option;
}

let default =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    handlers = 4;
    queue_bound = 256;
    inflight_cap = 64;
    weights = [];
    cache_capacity = None;
    snapshot = None;
    snapshot_every_s = None;
    job_deadline_s = None;
    wal = None;
    io_timeout_s = Some 30.;
    max_pending = 128;
    quarantine_strikes = None;
    quarantine_ttl_s = None;
    slo_thresholds = [];
    slo_objective = None;
    flight_size = None;
    flight_dump = None;
    sharding = None;
  }

let m_overload_closed =
  Metrics.counter "serve_overload_closed_total"
    ~help:"Connections closed unserved because the pending-connection queue was full."

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  cache : Cache.t;
  sched : Scheduler.t;
  store : Store.t;
  snapshot : string option;
  io_timeout_s : float option;
  max_pending : int;
  stopping : bool Atomic.t;
  cmutex : Mutex.t;
  cready : Condition.t;
  conns : Unix.file_descr Queue.t;
  mutable acceptor_d : unit Domain.t option;
  mutable handler_ds : unit Domain.t list;
  mutable snapshot_d : unit Domain.t option;
}

(* The acceptor polls with a short select timeout instead of blocking in
   accept: closing a listening socket does not reliably wake a blocked
   accept on Linux, so shutdown is signalled through [stopping] and observed
   within one poll interval. *)
let acceptor srv () =
  let fd = srv.listen_fd in
  while not (Atomic.get srv.stopping) do
    let readable =
      try (match Unix.select [ fd ] [] [] 0.2 with [], _, _ -> false | _ -> true)
      with Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if readable then
      try
        let c, _ = Unix.accept fd in
        Unix.clear_nonblock c;
        Metrics.incr m_connections;
        Mutex.lock srv.cmutex;
        if Queue.length srv.conns >= srv.max_pending then begin
          (* every handler is busy and the backlog is full: shedding the
             connection now beats letting the peer wait on a queue that
             cannot drain in time *)
          Mutex.unlock srv.cmutex;
          Metrics.incr m_overload_closed;
          try Unix.close c with Unix.Unix_error _ -> ()
        end
        else begin
          Queue.add c srv.conns;
          Condition.signal srv.cready;
          Mutex.unlock srv.cmutex
        end
      with
      | Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
        ->
        ()
      | Unix.Unix_error _ when Atomic.get srv.stopping -> ()
  done

let serve_conn ?io_timeout_s ctx fd =
  let c = Http.conn ?read_timeout_s:io_timeout_s ?write_timeout_s:io_timeout_s fd in
  (* a provisional request id, stamped before the request is even parsed:
     400/408/500 replies for requests that never reached the router still
     echo an id the peer can report.  The router replaces it with the
     client's own X-Request-Id when the request parses and carries one. *)
  let rid = Context.fresh () in
  Http.set_response_header c "x-request-id" rid;
  (try
     let req = Http.read_request c in
     Router.handle ctx c req
   with
  | Http.Closed -> ()
  | Http.Bad msg ->
    Flight.event ~kind:"http_error" ~trace:rid
      ~fields:[ ("status", Json.Num 400.); ("error", Json.Str msg) ]
      ();
    (try Http.respond c ~status:400 (msg ^ "\n") with _ -> ())
  | Http.Timeout dir ->
    (* a stalled peer: answer 408 if the socket still accepts bytes, then
       close — the handler domain is free again within one timeout *)
    Flight.event ~kind:"http_error" ~trace:rid
      ~fields:[ ("status", Json.Num 408.); ("error", Json.Str (dir ^ " timeout")) ]
      ();
    Log.info (fun m -> m "serve: connection %s timeout, dropping peer" dir);
    (try Http.respond c ~status:408 "request timeout\n" with _ -> ())
  | Unix.Unix_error _ -> ()
  | e ->
    Flight.event ~kind:"panic" ~trace:rid
      ~fields:[ ("error", Json.Str (Printexc.to_string e)) ]
      ();
    Log.warn (fun m -> m "serve: handler raised %s" (Printexc.to_string e));
    ( try Http.respond c ~status:500 "internal error\n" with _ -> ()));
  Http.close c

let handler srv ctx () =
  let rec loop () =
    let next =
      Mutex.lock srv.cmutex;
      let rec await () =
        if not (Queue.is_empty srv.conns) then Some (Queue.pop srv.conns)
        else if Atomic.get srv.stopping then None
        else begin
          Condition.wait srv.cready srv.cmutex;
          await ()
        end
      in
      let r = await () in
      Mutex.unlock srv.cmutex;
      r
    in
    match next with
    | None -> ()
    | Some fd ->
      serve_conn ?io_timeout_s:srv.io_timeout_s ctx fd;
      loop ()
  in
  loop ()

let snapshotter srv ~every ~path () =
  let rec loop elapsed =
    if not (Atomic.get srv.stopping) then begin
      Unix.sleepf 0.2;
      let elapsed = elapsed +. 0.2 in
      if elapsed >= every then begin
        Cache.save srv.cache ~path;
        loop 0.
      end
      else loop elapsed
    end
  in
  loop 0.

let start cfg =
  (* a daemon that exposes /metrics collects them, no opt-in flag needed;
     same deal for the flight recorder behind /v1/debug/flight — post-mortems
     must need no prior configuration *)
  Metrics.set_enabled true;
  Option.iter (fun size -> Flight.configure ~size) cfg.flight_size;
  Flight.enable ();
  Option.iter (fun path -> Flight.install_signal_dump ~path ()) cfg.flight_dump;
  let slo = Slo.create ?objective:cfg.slo_objective ~thresholds:cfg.slo_thresholds () in
  let cache = Cache.create ?capacity:cfg.cache_capacity () in
  (match cfg.snapshot with
  | Some path when Sys.file_exists path -> (
    match Cache.load cache ~path with
    | Ok n -> Log.info (fun m -> m "serve: restored %d cache entries from %s" n path)
    | Error e -> Log.warn (fun m -> m "serve: ignoring cache snapshot %s: %s" path e))
  | _ -> ());
  let sched =
    Scheduler.create ~workers:cfg.workers ~queue_bound:cfg.queue_bound
      ~inflight_cap:cfg.inflight_cap ~weights:cfg.weights ()
  in
  (* replays the write-ahead log (rescheduling interrupted jobs) before the
     listener exists, so no client can observe a half-replayed store *)
  let store =
    Store.create ?wal:cfg.wal ?default_deadline_s:cfg.job_deadline_s
      ?quarantine_strikes:cfg.quarantine_strikes ?quarantine_ttl_s:cfg.quarantine_ttl_s
      ?sharding:cfg.sharding ~slo ~sched ~cache ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let srv =
    {
      listen_fd = fd;
      bound_port;
      cache;
      sched;
      store;
      snapshot = cfg.snapshot;
      io_timeout_s = cfg.io_timeout_s;
      max_pending = max 1 cfg.max_pending;
      stopping = Atomic.make false;
      cmutex = Mutex.create ();
      cready = Condition.create ();
      conns = Queue.create ();
      acceptor_d = None;
      handler_ds = [];
      snapshot_d = None;
    }
  in
  let ctx = { Router.cache; sched; store; slo; started_at = Unix.gettimeofday () } in
  srv.acceptor_d <- Some (Domain.spawn (acceptor srv));
  srv.handler_ds <- List.init (max 1 cfg.handlers) (fun _ -> Domain.spawn (handler srv ctx));
  (match (cfg.snapshot, cfg.snapshot_every_s) with
  | Some path, Some every when every > 0. ->
    srv.snapshot_d <- Some (Domain.spawn (snapshotter srv ~every ~path))
  | _ -> ());
  Log.info (fun m -> m "serve: listening on %s:%d" cfg.host bound_port);
  srv

let port srv = srv.bound_port

let cache srv = srv.cache

let store srv = srv.store

let stop ?drain_deadline_s srv =
  if not (Atomic.exchange srv.stopping true) then begin
    Option.iter Domain.join srv.acceptor_d;
    srv.acceptor_d <- None;
    (* jobs first: streaming handlers block on their verdicts *)
    Scheduler.drain ?deadline_s:drain_deadline_s srv.sched;
    Mutex.lock srv.cmutex;
    Condition.broadcast srv.cready;
    Mutex.unlock srv.cmutex;
    List.iter Domain.join srv.handler_ds;
    srv.handler_ds <- [];
    Option.iter Domain.join srv.snapshot_d;
    srv.snapshot_d <- None;
    (try Unix.close srv.listen_fd with _ -> ());
    Option.iter (fun path -> Cache.save srv.cache ~path) srv.snapshot;
    Log.info (fun m -> m "serve: drained and stopped")
  end
