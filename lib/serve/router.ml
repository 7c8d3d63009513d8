module Context = Mechaml_obs.Context
module Flight = Mechaml_obs.Flight
module Json = Mechaml_obs.Json
module Metrics = Mechaml_obs.Metrics
module Trace = Mechaml_obs.Trace
module Log = Mechaml_obs.Log
module Cache = Mechaml_engine.Cache
module Campaign = Mechaml_engine.Campaign
module Http = Mechaml_wire.Http

let m_requests =
  Metrics.counter "serve_requests_total" ~help:"HTTP requests handled by the daemon."

let m_campaigns =
  Metrics.counter "serve_campaigns_total" ~help:"Campaign submissions accepted."

let m_http_errors =
  Metrics.counter "serve_http_errors_total"
    ~help:"Requests answered with a 4xx/5xx status."

let m_cache_hit_rate =
  Metrics.gauge "serve_cache_hit_rate"
    ~help:"Hit rate of the shared verification cache since daemon start."

let m_cache_entries =
  Metrics.gauge "serve_cache_entries" ~help:"Entries in the shared verification cache."

let m_uptime = Metrics.gauge "serve_uptime_seconds" ~help:"Seconds since daemon start."

type ctx = {
  cache : Cache.t;
  sched : Scheduler.t;
  store : Store.t;
  slo : Slo.t;
  started_at : float;
}

let refresh_gauges ctx =
  let s = Cache.stats ctx.cache in
  Metrics.set m_cache_hit_rate (Cache.hit_rate s);
  Metrics.set m_cache_entries (float_of_int s.Cache.entries);
  Metrics.set m_uptime (Unix.gettimeofday () -. ctx.started_at)

let json_response conn ~status v =
  Http.respond conn ~status
    ~headers:[ ("content-type", "application/json") ]
    (Json.to_string v ^ "\n")

let error_response conn ~status ?(headers = []) msg =
  Metrics.incr m_http_errors;
  Flight.event ~kind:"http_error"
    ~fields:[ ("status", Json.Num (float_of_int status)); ("error", Json.Str msg) ]
    ();
  Http.respond conn ~status
    ~headers:(("content-type", "application/json") :: headers)
    (Json.to_string (Json.Obj [ ("error", Json.Str msg) ]) ^ "\n")

(* -- GET /v1/stats ---------------------------------------------------------- *)

let stats_body ctx =
  let c = Cache.stats ctx.cache in
  let s = Scheduler.stats ctx.sched in
  Json.Obj
    [
      ("schema", Json.Str "mechaml-serve-stats/1");
      ("uptime_s", Json.Num (Unix.gettimeofday () -. ctx.started_at));
      ("queued", Json.Num (float_of_int s.Scheduler.queued));
      ("running", Json.Num (float_of_int s.Scheduler.running));
      ( "tenants",
        Json.List
          (List.map
             (fun (name, queued, inflight) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("queued", Json.Num (float_of_int queued));
                   ("inflight", Json.Num (float_of_int inflight));
                 ])
             s.Scheduler.tenants) );
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Num (float_of_int c.Cache.entries));
            ("closure_hits", Json.Num (float_of_int c.Cache.closure_hits));
            ("closure_misses", Json.Num (float_of_int c.Cache.closure_misses));
            ("check_hits", Json.Num (float_of_int c.Cache.check_hits));
            ("check_misses", Json.Num (float_of_int c.Cache.check_misses));
            ("evictions", Json.Num (float_of_int c.Cache.evictions));
            ("hit_rate", Json.Num (Cache.hit_rate c));
          ] );
      ( "quarantined",
        Json.List
          (List.map
             (fun (key, reason) ->
               Json.Obj [ ("digest", Json.Str key); ("reason", Json.Str reason) ])
             (Quarantine.active (Store.quarantine ctx.store))) );
      ( "sharding",
        match Store.sharding ctx.store with
        | None -> Json.Obj [ ("enabled", Json.Bool false) ]
        | Some cfg ->
          Json.Obj
            [
              ("enabled", Json.Bool true);
              ("shards", Json.Num (float_of_int cfg.Mechaml_ts.Shard.shards));
              ( "mem_budget",
                match cfg.Mechaml_ts.Shard.mem_budget with
                | None -> Json.Null
                | Some b -> Json.Num (float_of_int b) );
              ( "spills",
                Json.Num (float_of_int (Mechaml_util.Segment.total_spills ())) );
              ( "reloads",
                Json.Num (float_of_int (Mechaml_util.Segment.total_reloads ())) );
            ] );
      ( "distribution",
        match Store.sharding ctx.store with
        | Some { Mechaml_ts.Shard.distribution = Some d; _ } ->
          Json.Obj
            [
              ("enabled", Json.Bool true);
              ( "mode",
                match d.Mechaml_ts.Shard.dist_mode with
                | Mechaml_ts.Shard.Fork n -> Json.Str (Printf.sprintf "fork:%d" n)
                | Mechaml_ts.Shard.Connect addrs ->
                  Json.Str ("connect:" ^ String.concat "," addrs) );
              ("deadline_s", Json.Num d.Mechaml_ts.Shard.dist_deadline_s);
              ( "rounds",
                Json.Num (float_of_int (Mechaml_dist.Distshard.total_rounds ())) );
              ( "bytes_tx",
                Json.Num (float_of_int (Mechaml_dist.Distshard.total_bytes_tx ())) );
              ( "bytes_rx",
                Json.Num (float_of_int (Mechaml_dist.Distshard.total_bytes_rx ())) );
              ( "worker_restarts",
                Json.Num (float_of_int (Mechaml_dist.Distshard.total_restarts ())) );
            ]
        | _ -> Json.Obj [ ("enabled", Json.Bool false) ] );
    ]

(* -- POST /v1/campaign ------------------------------------------------------ *)

(* The streaming loop: the store owns every verdict, this (connection
   handler) domain just pages through the entry's completion order into
   chunked ndjson events as they land.  If the client goes away mid-stream
   the write raises; the jobs keep running and their verdicts stay in the
   store — a reconnect with the same idempotency key attaches to the entry
   and replays everything from the start without re-running a single job. *)
let campaign ctx conn (req : Http.request) ~request_id =
  let t_admit = Unix.gettimeofday () in
  match Json.parse req.Http.body with
  | Error e -> error_response conn ~status:400 ("invalid JSON body: " ^ e)
  | Ok body -> (
    match Wire.decode_submit body with
    | Error e -> error_response conn ~status:400 e
    | Ok sub -> (
      let tenant = Option.value (Http.header req "x-tenant") ~default:"anon" in
      (* the header id (or the minted one already echoed to the client) is
         the submission's trace id; it rides into the WAL accept record *)
      let sub = { sub with Wire.request_id = Some request_id } in
      match Store.submit ctx.store ~tenant sub with
      | Error (Store.Invalid e) -> error_response conn ~status:400 e
      | Error (Store.Rejected (Scheduler.Busy { retry_after_s })) ->
        error_response conn ~status:429
          ~headers:
            [ ("retry-after", string_of_int (int_of_float (Float.ceil retry_after_s))) ]
          (Printf.sprintf "queue full, retry after %.2fs" retry_after_s)
      | Error (Store.Rejected Scheduler.Draining) ->
        error_response conn ~status:503 "daemon is draining"
      | Ok (entry, how) ->
        let n = Store.size entry in
        Metrics.incr m_campaigns;
        Slo.observe ctx.slo ~tenant ~stage:"admission" (Unix.gettimeofday () -. t_admit);
        Flight.event ~kind:"admission"
          ~fields:
            [
              ("key", Json.Str (Store.key entry));
              ("tenant", Json.Str tenant);
              ("jobs", Json.Num (float_of_int n));
              ( "how",
                Json.Str (match how with `Fresh -> "fresh" | `Attached -> "attached") );
            ]
          ();
        Log.info (fun m ->
            m "serve: %s %d jobs from tenant %s (key %s)"
              (match how with `Fresh -> "accepted" | `Attached -> "re-attached")
              n tenant (Store.key entry));
        let send ev =
          Http.chunk conn
            (Json.to_string (Wire.encode_event ~request_id ev) ^ "\n")
        in
        let t_stream = Unix.gettimeofday () in
        Http.start_chunked conn ~status:200
          ~headers:[ ("content-type", "application/x-ndjson") ]
          ();
        send (Wire.Accepted { jobs = n });
        let rec stream pos =
          match Store.await ctx.store entry ~pos with
          | Store.Next (i, o) ->
            send (Wire.Verdict { index = i; outcome = o });
            stream (pos + 1)
          | Store.Finished -> ()
        in
        stream 0;
        let cs = Cache.stats ctx.cache in
        send
          (Wire.Done
             {
               jobs = n;
               cache_entries = cs.Cache.entries;
               cache_hit_rate = Cache.hit_rate cs;
             });
        Http.finish_chunked conn;
        Slo.observe ctx.slo ~tenant ~stage:"stream" (Unix.gettimeofday () -. t_stream)))

(* -- GET /v1/jobs/<key> ----------------------------------------------------- *)

let job_status ctx conn key =
  match Store.status ctx.store ~key with
  | None -> error_response conn ~status:404 "unknown job key"
  | Some st -> json_response conn ~status:200 (Wire.encode_status st)

(* -- dispatch --------------------------------------------------------------- *)

let jobs_prefix = "/v1/jobs/"

let known_path p path =
  path = "/healthz" || path = "/metrics" || path = "/v1/stats" || path = "/v1/slo"
  || path = "/v1/debug/flight" || path = "/v1/campaign"
  || (String.length path > p && String.sub path 0 p = jobs_prefix)

let handle ctx conn (req : Http.request) =
  Metrics.incr m_requests;
  (* A client-supplied X-Request-Id (validated: it travels into WAL lines
     and log output) is adopted as the trace id; otherwise one is minted
     here, at admission.  Either way it is stamped onto the response before
     any routing, so even a 4xx carries it. *)
  let request_id =
    match Http.header req "x-request-id" with
    | Some r when Wire.valid_key r -> r
    | _ -> Context.fresh ()
  in
  Http.set_response_header conn "x-request-id" request_id;
  Context.with_id request_id (fun () ->
      Trace.with_span ~name:"serve.request"
        ~args:[ ("method", Trace.Str req.Http.meth); ("path", Trace.Str req.Http.path) ]
        (fun () ->
          let p = String.length jobs_prefix in
          match (req.Http.meth, req.Http.path) with
          | "GET", "/healthz" ->
            Http.respond conn ~status:200
              ~headers:[ ("content-type", "text/plain") ]
              "ok\n"
          | "GET", "/metrics" ->
            refresh_gauges ctx;
            Http.respond conn ~status:200
              ~headers:[ ("content-type", "text/plain; version=0.0.4") ]
              (Metrics.to_prometheus ())
          | "GET", "/v1/stats" -> json_response conn ~status:200 (stats_body ctx)
          | "GET", "/v1/slo" -> json_response conn ~status:200 (Slo.view ctx.slo)
          | "GET", "/v1/debug/flight" ->
            Http.respond conn ~status:200
              ~headers:[ ("content-type", "application/x-ndjson") ]
              (Flight.dump ())
          | "POST", "/v1/campaign" -> campaign ctx conn req ~request_id
          | "GET", path when String.length path > p && String.sub path 0 p = jobs_prefix
            ->
            job_status ctx conn (String.sub path p (String.length path - p))
          | _, path when known_path p path ->
            error_response conn ~status:405 "method not allowed"
          | _ -> error_response conn ~status:404 "no such endpoint"))
