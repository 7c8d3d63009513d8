(** Request dispatch for the verification daemon.

    Endpoints:

    - [GET /healthz] — liveness, ["ok\n"];
    - [GET /metrics] — the process {!Mechaml_obs.Metrics} registry in
      Prometheus text exposition format (server gauges refreshed on
      scrape), including the cumulative [serve_stage_seconds_bucket{le=...}]
      SLO histograms;
    - [GET /v1/stats] — queue/tenant/cache/quarantine stats as JSON;
    - [GET /v1/slo] — the per-tenant × per-stage SLO burn-rate view
      ({!Slo.view});
    - [GET /v1/debug/flight] — the flight-recorder ring as ndjson
      ({!Mechaml_obs.Flight.dump}), no configuration required;
    - [POST /v1/campaign] — submit a campaign ({!Wire.submit} body, tenant
      from the [x-tenant] header, default ["anon"]); streams
      newline-delimited {!Wire.event} JSON as a chunked response while jobs
      run, or answers [429 + Retry-After] / [503] under admission control.
      A known idempotency key re-attaches to the original submission and
      replays its verdicts instead of re-running anything;
    - [GET /v1/jobs/<key>] — the {!Wire.job_status} of a submission by
      idempotency key ([404] when unknown): how a reconnecting client
      collects verdicts without holding a stream open.

    Anything else is [404]; a known path with the wrong verb is [405].

    Every request is assigned a trace id — the validated [X-Request-Id]
    header when present, minted otherwise — echoed on the response header,
    set as the handling domain's {!Mechaml_obs.Context}, stored into the
    submission (and hence its WAL accept record), and stamped onto every
    streamed event. *)

type ctx = {
  cache : Mechaml_engine.Cache.t;  (** shared across every request *)
  sched : Scheduler.t;
  store : Store.t;
  slo : Slo.t;
  started_at : float;
}

val handle : ctx -> Mechaml_wire.Http.conn -> Mechaml_wire.Http.request -> unit
(** Serve one request and write the full response.  Raises only on
    connection-level I/O failures ([Unix_error],
    {!Mechaml_wire.Http.Closed}) — protocol errors are answered with
    4xx/5xx. *)
