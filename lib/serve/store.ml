module Flight = Mechaml_obs.Flight
module Log = Mechaml_obs.Log
module Metrics = Mechaml_obs.Metrics
module Json = Mechaml_obs.Json
module Journal = Mechaml_core.Journal
module Cache = Mechaml_engine.Cache
module Campaign = Mechaml_engine.Campaign

let wal_header = "mechaserve-wal 1"

(* The watchdog fires this long after the job's own wall-clock budget: the
   spec timeout (checked between verification stages) is the polite
   mechanism, the watchdog the backstop for a stage that never returns. *)
let deadline_grace = 0.25

let m_wal_restored =
  Metrics.counter "serve_wal_restored_total"
    ~help:"Verdicts of interrupted submissions restored from the write-ahead log."

let m_wal_replays =
  Metrics.counter "serve_wal_replays_total"
    ~help:"Jobs re-run at startup because the write-ahead log had no verdict for them."

type entry = {
  key : string;
  tenant : string;
  submit : Wire.submit;
  n : int;
  outcomes : Campaign.outcome option array;
  mutable order : (int * Campaign.outcome) list;  (** reverse completion order *)
  mutable completed : int;
  mutable finished : bool;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (** a verdict landed somewhere *)
  entries : (string, entry) Hashtbl.t;
  wal : Journal.Lines.appender option;
      (** held open for the store's lifetime: the log gains several records
          per job, and an open/close round trip per record is measurable *)
  sched : Scheduler.t;
  cache : Cache.t;
  quarantine : Quarantine.t;
  slo : Slo.t option;  (** stage-latency objectives (queue/closure/check) *)
  sharding : Mechaml_ts.Shard.config option;
      (** when set, every job runs through the sharded check pipeline *)
  default_deadline_s : float option;
  mutable serial : int;  (** uniquifies generated keys *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let key e = e.key

let size e = e.n

let quarantine t = t.quarantine

let sharding t = t.sharding

(* -- stand-in outcomes ------------------------------------------------------ *)

(* A stream owes the client one verdict per accepted job even when the job
   never (or never finishes) running: drained-away, overdue and quarantined
   jobs all answer with a zero-cost stand-in. *)
let standin (spec : Campaign.spec) verdict =
  {
    Campaign.spec_id = spec.Campaign.id;
    family = spec.Campaign.family;
    verdict;
    iterations = 0;
    states_learned = 0;
    knowledge = 0;
    tests_executed = 0;
    test_steps = 0;
    attempts = 0;
    duration_s = 0.;
    closure_seconds = 0.;
    check_seconds = 0.;
    test_seconds = 0.;
    max_closure_states = 0;
    max_product_states = 0;
    closure_delta_edges = 0;
    product_states_reused = 0;
    cache = { closure_hits = 0; closure_misses = 0; check_hits = 0; check_misses = 0 };
    fault = spec.Campaign.inject;
    supervision = None;
  }

(* Everything that determines a spec's behaviour — not the whole spec, which
   contains closures the digest primitive cannot walk. *)
let spec_digest (spec : Campaign.spec) =
  Cache.digest
    (spec.Campaign.id, spec.Campaign.family, spec.Campaign.inject, spec.Campaign.seed)

(* -- write-ahead log -------------------------------------------------------- *)

let wal_append t line =
  Option.iter (fun a -> Journal.Lines.append_line a line) t.wal

let accept_line e =
  Json.to_string
    (Json.Obj
       [
         ("rec", Json.Str "accept");
         ("key", Json.Str e.key);
         ("tenant", Json.Str e.tenant);
         ("submit", Wire.encode_submit e.submit);
       ])

let verdict_line ekey i o =
  Json.to_string
    (Json.Obj
       [
         ("rec", Json.Str "verdict");
         ("key", Json.Str ekey);
         ("index", Json.Num (float_of_int i));
         ("outcome", Wire.encode_outcome o);
       ])

let done_line ekey =
  Json.to_string (Json.Obj [ ("rec", Json.Str "done"); ("key", Json.Str ekey) ])

(* -- completion ------------------------------------------------------------- *)

let verdict_tag = function
  | Campaign.Proved -> "proved"
  | Campaign.Real_deadlock _ -> "real_deadlock"
  | Campaign.Real_property _ -> "real_property"
  | Campaign.Exhausted -> "exhausted"
  | Campaign.Degraded _ -> "degraded"
  | Campaign.Timed_out -> "timed_out"
  | Campaign.Failed _ -> "failed"

let request_id e = e.submit.Wire.request_id

(* Called under the lock.  First write per index wins: a watchdog stand-in
   followed by the abandoned computation's real (stale) result records the
   stand-in; whoever loses the race is dropped here. *)
let complete_locked t e i outcome =
  if i >= 0 && i < e.n && e.outcomes.(i) = None then begin
    e.outcomes.(i) <- Some outcome;
    e.order <- (i, outcome) :: e.order;
    e.completed <- e.completed + 1;
    wal_append t (verdict_line e.key i outcome);
    Flight.event ~kind:"verdict" ?trace:(request_id e)
      ~fields:
        [
          ("key", Json.Str e.key);
          ("index", Json.Num (float_of_int i));
          ("id", Json.Str outcome.Campaign.spec_id);
          ("verdict", Json.Str (verdict_tag outcome.Campaign.verdict));
        ]
      ();
    if e.completed = e.n then begin
      e.finished <- true;
      wal_append t (done_line e.key)
    end;
    Condition.broadcast t.cond
  end

let complete t ~key ~index outcome =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> ()
      | Some e -> complete_locked t e index outcome)

(* -- scheduling ------------------------------------------------------------- *)

(* Build and submit the scheduler jobs for [(index, spec)] pairs of entry
   [e].  The per-job deadline (request field, falling back to the server
   default) is enforced twice: clamped into the spec's own wall-clock budget
   (checked between stages, the usual exit) and backstopped by the scheduler
   watchdog at [deadline + grace] for stages that hang outright.  Both the
   natural timeout and a watchdog kill count as a poison strike. *)
let schedule t e ~deadline_s indexed =
  let rid = request_id e in
  let strike ~dkey reason =
    Flight.event ~kind:"quarantine_strike" ?trace:rid
      ~fields:[ ("digest", Json.Str dkey); ("reason", Json.Str reason) ]
      ();
    ignore (Quarantine.strike t.quarantine ~key:dkey ~reason)
  in
  let on_dequeue =
    Option.map
      (fun slo wait -> Slo.observe slo ~tenant:e.tenant ~stage:"queue" wait)
      t.slo
  in
  let jobs =
    List.map
      (fun (i, (spec : Campaign.spec)) ->
        let dkey = spec_digest spec in
        let spec =
          match deadline_s with
          | None -> spec
          | Some d ->
            let budget =
              match spec.Campaign.timeout with None -> d | Some t0 -> Float.min t0 d
            in
            { spec with Campaign.timeout = Some budget }
        in
        let discard () =
          complete t ~key:e.key ~index:i
            (standin spec (Campaign.Failed "discarded: daemon drained before the job ran"))
        in
        let run () =
          let o = Campaign.run_spec ?sharding:t.sharding ~cache:t.cache spec in
          Option.iter
            (fun slo ->
              (* stage latencies of jobs that actually ran; stand-ins never
                 reach here, so zeros don't dilute the distribution *)
              Slo.observe slo ~tenant:e.tenant ~stage:"closure" o.Campaign.closure_seconds;
              Slo.observe slo ~tenant:e.tenant ~stage:"check" o.Campaign.check_seconds)
            t.slo;
          (match o.Campaign.verdict with
          | Campaign.Timed_out -> strike ~dkey (spec.Campaign.id ^ ": timed out")
          | _ -> ());
          complete t ~key:e.key ~index:i o
        in
        match deadline_s with
        | None -> Scheduler.job ~on_discard:discard ?request_id:rid ?on_dequeue run
        | Some d ->
          let kill () =
            strike ~dkey (spec.Campaign.id ^ ": watchdog deadline");
            complete t ~key:e.key ~index:i
              (standin spec
                 (Campaign.Failed
                    (Printf.sprintf "deadline: abandoned after %.1fs" d)))
          in
          Scheduler.job ~deadline_s:(d +. deadline_grace) ~on_discard:discard
            ~on_deadline:kill ?request_id:rid ?on_dequeue run)
      indexed
  in
  Scheduler.submit t.sched ~tenant:e.tenant jobs

(* -- submission ------------------------------------------------------------- *)

type error = Invalid of string | Rejected of Scheduler.rejection

let effective_deadline t (sub : Wire.submit) =
  match sub.Wire.deadline_s with Some _ as d -> d | None -> t.default_deadline_s

let submit t ~tenant (sub : Wire.submit) =
  match Wire.resolve sub with
  | Error e -> Error (Invalid e)
  | Ok specs ->
    (* Holding the store lock across [Scheduler.submit] is safe: scheduler
       callbacks run outside the scheduler lock and block on this mutex at
       worst, and the scheduler never waits on the store. *)
    locked t (fun () ->
        let key =
          match sub.Wire.key with
          | Some k -> k
          | None ->
            t.serial <- t.serial + 1;
            "auto-"
            ^ String.sub
                (Cache.digest (tenant, sub.Wire.tiny, sub.Wire.select, sub.Wire.ids,
                               t.serial, Unix.gettimeofday ()))
                0 16
        in
        match Hashtbl.find_opt t.entries key with
        | Some e -> Ok (e, `Attached)
        | None ->
          let n = List.length specs in
          let deadline_s = effective_deadline t sub in
          let e =
            {
              key;
              tenant;
              submit = { sub with Wire.key = Some key };
              n;
              outcomes = Array.make n None;
              order = [];
              completed = 0;
              finished = false;
            }
          in
          let indexed = List.mapi (fun i s -> (i, s)) specs in
          let quarantined, runnable =
            List.partition_map
              (fun (i, s) ->
                match Quarantine.check t.quarantine ~key:(spec_digest s) with
                | Some reason -> Either.Left (i, s, reason)
                | None -> Either.Right (i, s))
              indexed
          in
          let admitted =
            if runnable = [] then Ok () else schedule t e ~deadline_s runnable
          in
          (match admitted with
          | Error rej -> Error (Rejected rej)
          | Ok () ->
            Hashtbl.add t.entries key e;
            wal_append t (accept_line e);
            List.iter
              (fun (i, s, reason) ->
                Log.warn (fun m ->
                    m "store: refusing quarantined job %s (%s)" s.Campaign.id reason);
                complete_locked t e i
                  (standin s (Campaign.Failed ("quarantined: " ^ reason))))
              quarantined;
            Ok (e, `Fresh)))

(* -- streaming -------------------------------------------------------------- *)

type progress = Next of int * Campaign.outcome | Finished

let await t e ~pos =
  locked t (fun () ->
      let rec go () =
        if pos < e.completed then begin
          (* [order] is newest-first; position [pos] counts from the front *)
          let i, o = List.nth e.order (e.completed - 1 - pos) in
          Next (i, o)
        end
        else if e.finished then Finished
        else begin
          Condition.wait t.cond t.mutex;
          go ()
        end
      in
      go ())

let status t ~key =
  locked t (fun () ->
      Option.map
        (fun e ->
          {
            Wire.job_key = e.key;
            jobs = e.n;
            completed = e.completed;
            finished = e.finished;
            verdicts = List.rev e.order;
          })
        (Hashtbl.find_opt t.entries key))

(* -- startup replay --------------------------------------------------------- *)

let ( let* ) = Result.bind

let parse_wal_line body =
  let* obj = Json.parse body in
  let str k =
    match Json.member k obj with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing field %S" k)
  in
  let* tag = str "rec" in
  let* k = str "key" in
  match tag with
  | "accept" ->
    let* tenant = str "tenant" in
    let* sub =
      match Json.member "submit" obj with
      | Some s -> Wire.decode_submit s
      | None -> Error "missing field \"submit\""
    in
    Ok (`Accept (k, tenant, sub))
  | "verdict" ->
    let* index =
      match Option.bind (Json.member "index" obj) Json.to_float with
      | Some f -> Ok (int_of_float f)
      | None -> Error "missing field \"index\""
    in
    let* outcome =
      match Json.member "outcome" obj with
      | Some o -> Wire.decode_outcome o
      | None -> Error "missing field \"outcome\""
    in
    Ok (`Verdict (k, index, outcome))
  | "done" -> Ok (`Done k)
  | other -> Error (Printf.sprintf "unknown record kind %S" other)

(* Rebuild the entry table from the log, then reschedule exactly the jobs of
   unfinished entries that have no recorded verdict — restored verdicts are
   never re-run.  Runs before the listener starts, so no client can observe
   a half-replayed store.  A malformed line fails that line, not the rest:
   robustness code must itself degrade gracefully. *)
let replay t path =
  match Journal.Lines.load ~path ~header:wal_header with
  | Stdlib.Error { line = 0; _ } -> ()  (* first boot: no log yet *)
  | Stdlib.Error { line; message } ->
    Log.warn (fun m ->
        m "store: write-ahead log %s unreadable (line %d: %s), starting empty" path line
          message)
  | Ok (lines, torn) ->
    if torn then
      Log.warn (fun m -> m "store: dropped a torn trailing record from %s" path);
    locked t @@ fun () ->
    List.iter
      (fun (lineno, body) ->
        match parse_wal_line body with
        | Error e -> Log.warn (fun m -> m "store: wal line %d skipped: %s" lineno e)
        | Ok (`Accept (k, tenant, sub)) -> (
          if not (Hashtbl.mem t.entries k) then
            match Wire.resolve sub with
            | Error e ->
              Log.warn (fun m -> m "store: wal entry %s no longer resolves: %s" k e)
            | Ok specs ->
              Hashtbl.add t.entries k
                {
                  key = k;
                  tenant;
                  submit = sub;
                  n = List.length specs;
                  outcomes = Array.make (List.length specs) None;
                  order = [];
                  completed = 0;
                  finished = false;
                })
        | Ok (`Verdict (k, i, o)) -> (
          match Hashtbl.find_opt t.entries k with
          | Some e when i >= 0 && i < e.n && e.outcomes.(i) = None ->
            e.outcomes.(i) <- Some o;
            e.order <- (i, o) :: e.order;
            e.completed <- e.completed + 1
          | _ -> Log.warn (fun m -> m "store: wal line %d: stray verdict for %s" lineno k))
        | Ok (`Done k) -> (
          match Hashtbl.find_opt t.entries k with
          | Some e -> e.finished <- true
          | None -> Log.warn (fun m -> m "store: wal line %d: stray done for %s" lineno k)))
      lines;
    (* completion order across a restart is lost between entries; within one
       entry the wal order is the completion order, which is all the client
       can observe through [GET /v1/jobs] *)
    Hashtbl.iter
      (fun _ e ->
        if (not e.finished) && e.completed = e.n then e.finished <- true)
      t.entries;
    let unfinished =
      Hashtbl.fold (fun _ e acc -> if e.finished then acc else e :: acc) t.entries []
    in
    List.iter
      (fun e ->
        Metrics.add m_wal_restored e.completed;
        let missing =
          match Wire.resolve e.submit with
          | Error _ -> []  (* warned above; unreachable for entries built here *)
          | Ok specs ->
            List.mapi (fun i s -> (i, s)) specs
            |> List.filter (fun (i, _) -> e.outcomes.(i) = None)
        in
        Metrics.add m_wal_replays (List.length missing);
        Log.info (fun m ->
            m "store: wal replay of %s: %d verdicts restored, %d jobs re-run" e.key
              e.completed (List.length missing));
        match schedule t e ~deadline_s:(effective_deadline t e.submit) missing with
        | Ok () -> ()
        | Error _ ->
          List.iter
            (fun (i, s) ->
              complete_locked t e i
                (standin s (Campaign.Failed "discarded: replay rejected by the scheduler")))
            missing)
      unfinished

let create ?wal ?default_deadline_s ?quarantine_strikes ?quarantine_ttl_s ?slo
    ?sharding ~sched
    ~cache () =
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      entries = Hashtbl.create 32;
      (* replay below reads the path directly; opening the appender first
         only stamps the header on a fresh file, which load tolerates *)
      wal =
        Option.map (fun path -> Journal.Lines.appender ~path ~header:wal_header) wal;
      sched;
      cache;
      quarantine =
        Quarantine.create ?strikes:quarantine_strikes ?ttl_s:quarantine_ttl_s ();
      slo;
      sharding;
      default_deadline_s;
      serial = 0;
    }
  in
  Option.iter (replay t) wal;
  t
