module Json = Mechaml_obs.Json
module Campaign = Mechaml_engine.Campaign
module Supervisor = Mechaml_legacy.Supervisor

(* -- submissions ----------------------------------------------------------- *)

type submit = {
  tiny : bool;
  select : string option;
  ids : string list option;
  key : string option;  (** idempotency key; the server generates one if absent *)
  deadline_s : float option;  (** per-job execution deadline, overrides the server default *)
  request_id : string option;
      (** trace id for the submission; carried into WAL records and spans *)
}

let submit ?(tiny = false) ?select ?ids ?key ?deadline_s ?request_id () =
  { tiny; select; ids; key; deadline_s; request_id }

let encode_submit s =
  Json.Obj
    ([ ("matrix", Json.Str (if s.tiny then "tiny" else "bundled")) ]
    @ (match s.select with None -> [] | Some sub -> [ ("select", Json.Str sub) ])
    @ (match s.key with None -> [] | Some k -> [ ("key", Json.Str k) ])
    @ (match s.deadline_s with None -> [] | Some d -> [ ("deadline_s", Json.Num d) ])
    @ (match s.request_id with None -> [] | Some r -> [ ("request_id", Json.Str r) ])
    @
    match s.ids with
    | None -> []
    | Some ids -> [ ("ids", Json.List (List.map (fun id -> Json.Str id) ids)) ])

(* decoding helpers: absent fields get defaults, mistyped fields are errors *)

let str_field obj k =
  match Json.member k obj with
  | None -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)

(* Idempotency keys travel in URLs ([GET /v1/jobs/<key>]) and in the
   write-ahead log, so the accepted alphabet is deliberately narrow. *)
let valid_key k =
  let n = String.length k in
  n > 0 && n <= 128
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       k

let decode_submit obj =
  match obj with
  | Json.Obj _ ->
    Result.bind (str_field obj "matrix") (fun matrix ->
        Result.bind
          (match matrix with
          | None | Some "bundled" -> Ok false
          | Some "tiny" -> Ok true
          | Some m -> Error (Printf.sprintf "unknown matrix %S (bundled|tiny)" m))
          (fun tiny ->
            Result.bind (str_field obj "select") (fun select ->
                Result.bind
                  (match str_field obj "key" with
                  | Ok (Some k) when not (valid_key k) ->
                    Error "field \"key\" must be 1-128 chars of [A-Za-z0-9._-]"
                  | r -> r)
                  (fun key ->
                    Result.bind
                      (match str_field obj "request_id" with
                      | Ok (Some r) when not (valid_key r) ->
                        Error "field \"request_id\" must be 1-128 chars of [A-Za-z0-9._-]"
                      | r -> r)
                      (fun request_id ->
                        Result.bind
                          (match Json.member "deadline_s" obj with
                          | None -> Ok None
                          | Some v -> (
                            match Json.to_float v with
                            | Some d when d > 0. -> Ok (Some d)
                            | Some _ -> Error "field \"deadline_s\" must be positive"
                            | None -> Error "field \"deadline_s\" must be a number"))
                          (fun deadline_s ->
                            match Json.member "ids" obj with
                            | None -> Ok { tiny; select; ids = None; key; deadline_s; request_id }
                            | Some (Json.List l) ->
                              let rec strings acc = function
                                | [] -> Ok (Some (List.rev acc))
                                | Json.Str s :: rest -> strings (s :: acc) rest
                                | _ -> Error "field \"ids\" must be a list of strings"
                              in
                              Result.map
                                (fun ids -> { tiny; select; ids; key; deadline_s; request_id })
                                (strings [] l)
                            | Some _ -> Error "field \"ids\" must be a list of strings"))))))
  | _ -> Error "submission must be a JSON object"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let resolve s =
  let specs = Campaign.bundled ~tiny:s.tiny () in
  let specs =
    match s.select with
    | None -> specs
    | Some sub -> List.filter (fun (sp : Campaign.spec) -> contains ~sub sp.Campaign.id) specs
  in
  match s.ids with
  | None -> if specs = [] then Error "selection matches no job id" else Ok specs
  | Some ids ->
    let known = List.map (fun (sp : Campaign.spec) -> sp.Campaign.id) specs in
    let unknown = List.filter (fun id -> not (List.mem id known)) ids in
    if unknown <> [] then
      Error (Printf.sprintf "unknown job ids: %s" (String.concat ", " unknown))
    else begin
      let picked =
        List.filter (fun (sp : Campaign.spec) -> List.mem sp.Campaign.id ids) specs
      in
      if picked = [] then Error "selection matches no job id" else Ok picked
    end

(* -- outcomes -------------------------------------------------------------- *)

let num i = Json.Num (float_of_int i)

let verdict_fields = function
  | Campaign.Proved -> [ ("verdict", Json.Str "proved") ]
  | Campaign.Real_deadlock { confirmed_by_test } ->
    [ ("verdict", Json.Str "real_deadlock"); ("confirmed_by_test", Json.Bool confirmed_by_test) ]
  | Campaign.Real_property { confirmed_by_test } ->
    [ ("verdict", Json.Str "real_property"); ("confirmed_by_test", Json.Bool confirmed_by_test) ]
  | Campaign.Exhausted -> [ ("verdict", Json.Str "exhausted") ]
  | Campaign.Degraded { reason } ->
    [ ("verdict", Json.Str "degraded"); ("reason", Json.Str reason) ]
  | Campaign.Timed_out -> [ ("verdict", Json.Str "timed_out") ]
  | Campaign.Failed error -> [ ("verdict", Json.Str "failed"); ("error", Json.Str error) ]

let encode_supervision (s : Supervisor.stats) =
  Json.Obj
    [
      ("queries", num s.Supervisor.queries);
      ("admitted", num s.Supervisor.admitted);
      ("attempts", num s.Supervisor.attempts);
      ("retried", num s.Supervisor.retried);
      ("crashes", num s.Supervisor.crashes);
      ("refused_connects", num s.Supervisor.refused_connects);
      ("divergences", num s.Supervisor.divergences);
      ("deadline_misses", num s.Supervisor.deadline_misses);
      ("votes_held", num s.Supervisor.votes_held);
      ("outvoted", num s.Supervisor.outvoted);
      ("breaker_trips", num s.Supervisor.breaker_trips);
      ("backoff_slept_s", Json.Num s.Supervisor.backoff_slept);
    ]

let encode_outcome (o : Campaign.outcome) =
  Json.Obj
    ([ ("id", Json.Str o.Campaign.spec_id); ("family", Json.Str o.Campaign.family) ]
    @ verdict_fields o.Campaign.verdict
    @ (match o.Campaign.fault with None -> [] | Some f -> [ ("fault", Json.Str f) ])
    @ [
        ("iterations", num o.Campaign.iterations);
        ("states_learned", num o.Campaign.states_learned);
        ("knowledge", num o.Campaign.knowledge);
        ("tests_executed", num o.Campaign.tests_executed);
        ("test_steps", num o.Campaign.test_steps);
        ("attempts", num o.Campaign.attempts);
        ("duration_s", Json.Num o.Campaign.duration_s);
        ("closure_seconds", Json.Num o.Campaign.closure_seconds);
        ("check_seconds", Json.Num o.Campaign.check_seconds);
        ("test_seconds", Json.Num o.Campaign.test_seconds);
        ("max_closure_states", num o.Campaign.max_closure_states);
        ("max_product_states", num o.Campaign.max_product_states);
        ("closure_delta_edges", num o.Campaign.closure_delta_edges);
        ( "cache",
          Json.Obj
            [
              ("closure_hits", num o.Campaign.cache.Campaign.closure_hits);
              ("closure_misses", num o.Campaign.cache.Campaign.closure_misses);
              ("check_hits", num o.Campaign.cache.Campaign.check_hits);
              ("check_misses", num o.Campaign.cache.Campaign.check_misses);
            ] );
      ]
    @
    match o.Campaign.supervision with
    | None -> []
    | Some s -> [ ("supervision", encode_supervision s) ])

(* decoding: a tiny applicative-free error monad keeps the field plumbing
   readable without pulling in a combinator library *)

let ( let* ) = Result.bind

let require k obj =
  match Json.member k obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let int_field k obj =
  let* v = require k obj in
  match Json.to_float v with
  | Some f -> Ok (int_of_float f)
  | None -> Error (Printf.sprintf "field %S must be a number" k)

let float_field k obj =
  let* v = require k obj in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S must be a number" k)

let string_field k obj =
  let* v = require k obj in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" k)

let bool_field ~default k obj =
  match Json.member k obj with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" k)

let decode_verdict obj =
  let* tag = string_field "verdict" obj in
  match tag with
  | "proved" -> Ok Campaign.Proved
  | "real_deadlock" ->
    let* confirmed_by_test = bool_field ~default:false "confirmed_by_test" obj in
    Ok (Campaign.Real_deadlock { confirmed_by_test })
  | "real_property" ->
    let* confirmed_by_test = bool_field ~default:false "confirmed_by_test" obj in
    Ok (Campaign.Real_property { confirmed_by_test })
  | "exhausted" -> Ok Campaign.Exhausted
  | "degraded" ->
    let* reason = string_field "reason" obj in
    Ok (Campaign.Degraded { reason })
  | "timed_out" -> Ok Campaign.Timed_out
  | "failed" ->
    let* error = string_field "error" obj in
    Ok (Campaign.Failed error)
  | t -> Error (Printf.sprintf "unknown verdict %S" t)

let decode_supervision obj =
  let* queries = int_field "queries" obj in
  let* admitted = int_field "admitted" obj in
  let* attempts = int_field "attempts" obj in
  let* retried = int_field "retried" obj in
  let* crashes = int_field "crashes" obj in
  let* refused_connects = int_field "refused_connects" obj in
  let* divergences = int_field "divergences" obj in
  let* deadline_misses = int_field "deadline_misses" obj in
  let* votes_held = int_field "votes_held" obj in
  let* outvoted = int_field "outvoted" obj in
  let* breaker_trips = int_field "breaker_trips" obj in
  let* backoff_slept = float_field "backoff_slept_s" obj in
  Ok
    {
      Supervisor.queries;
      admitted;
      attempts;
      retried;
      crashes;
      refused_connects;
      divergences;
      deadline_misses;
      votes_held;
      outvoted;
      breaker_trips;
      backoff_slept;
    }

let decode_outcome obj =
  let* spec_id = string_field "id" obj in
  let* family = string_field "family" obj in
  let* verdict = decode_verdict obj in
  let* fault = str_field obj "fault" in
  let* iterations = int_field "iterations" obj in
  let* states_learned = int_field "states_learned" obj in
  let* knowledge = int_field "knowledge" obj in
  let* tests_executed = int_field "tests_executed" obj in
  let* test_steps = int_field "test_steps" obj in
  let* attempts = int_field "attempts" obj in
  let* duration_s = float_field "duration_s" obj in
  let* closure_seconds = float_field "closure_seconds" obj in
  let* check_seconds = float_field "check_seconds" obj in
  let* test_seconds = float_field "test_seconds" obj in
  let* max_closure_states = int_field "max_closure_states" obj in
  let* max_product_states = int_field "max_product_states" obj in
  let* closure_delta_edges = int_field "closure_delta_edges" obj in
  let* cache_obj = require "cache" obj in
  let* closure_hits = int_field "closure_hits" cache_obj in
  let* closure_misses = int_field "closure_misses" cache_obj in
  let* check_hits = int_field "check_hits" cache_obj in
  let* check_misses = int_field "check_misses" cache_obj in
  let* supervision =
    match Json.member "supervision" obj with
    | None -> Ok None
    | Some sup -> Result.map Option.some (decode_supervision sup)
  in
  Ok
    {
      Campaign.spec_id;
      family;
      verdict;
      iterations;
      states_learned;
      knowledge;
      tests_executed;
      test_steps;
      attempts;
      duration_s;
      closure_seconds;
      check_seconds;
      test_seconds;
      max_closure_states;
      max_product_states;
      closure_delta_edges;
      product_states_reused = 0;
      cache = { Campaign.closure_hits; closure_misses; check_hits; check_misses };
      fault;
      supervision;
    }

(* -- events ---------------------------------------------------------------- *)

type event =
  | Accepted of { jobs : int }
  | Verdict of { index : int; outcome : Campaign.outcome }
  | Done of { jobs : int; cache_entries : int; cache_hit_rate : float }

let encode_event ?request_id ev =
  (* the trace id rides on every streamed event so an operator can grep a
     saved ndjson stream by request; decoders ignore unknown fields *)
  let rid = match request_id with None -> [] | Some r -> [ ("request_id", Json.Str r) ] in
  match ev with
  | Accepted { jobs } -> Json.Obj ([ ("event", Json.Str "accepted"); ("jobs", num jobs) ] @ rid)
  | Verdict { index; outcome } ->
    Json.Obj
      ([ ("event", Json.Str "verdict"); ("index", num index); ("outcome", encode_outcome outcome) ]
      @ rid)
  | Done { jobs; cache_entries; cache_hit_rate } ->
    Json.Obj
      ([
         ("event", Json.Str "done");
         ("jobs", num jobs);
         ("cache_entries", num cache_entries);
         ("cache_hit_rate", Json.Num cache_hit_rate);
       ]
      @ rid)

let decode_event obj =
  let* tag = string_field "event" obj in
  match tag with
  | "accepted" ->
    let* jobs = int_field "jobs" obj in
    Ok (Accepted { jobs })
  | "verdict" ->
    let* index = int_field "index" obj in
    let* outcome_obj = require "outcome" obj in
    let* outcome = decode_outcome outcome_obj in
    Ok (Verdict { index; outcome })
  | "done" ->
    let* jobs = int_field "jobs" obj in
    let* cache_entries = int_field "cache_entries" obj in
    let* cache_hit_rate = float_field "cache_hit_rate" obj in
    Ok (Done { jobs; cache_entries; cache_hit_rate })
  | t -> Error (Printf.sprintf "unknown event %S" t)

(* -- job status (GET /v1/jobs/<key>) ---------------------------------------- *)

type job_status = {
  job_key : string;
  jobs : int;
  completed : int;
  finished : bool;
  verdicts : (int * Campaign.outcome) list;  (** completion order *)
}

let status_schema = "mechaml-serve-job/1"

let encode_status st =
  Json.Obj
    [
      ("schema", Json.Str status_schema);
      ("key", Json.Str st.job_key);
      ("jobs", num st.jobs);
      ("completed", num st.completed);
      ("done", Json.Bool st.finished);
      ( "verdicts",
        Json.List
          (List.map
             (fun (i, o) -> Json.Obj [ ("index", num i); ("outcome", encode_outcome o) ])
             st.verdicts) );
    ]

let decode_status obj =
  let* schema = string_field "schema" obj in
  if schema <> status_schema then Error (Printf.sprintf "unknown schema %S" schema)
  else
    let* job_key = string_field "key" obj in
    let* jobs = int_field "jobs" obj in
    let* completed = int_field "completed" obj in
    let* finished = bool_field ~default:false "done" obj in
    let* verdicts =
      match Json.member "verdicts" obj with
      | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | v :: rest ->
            let* index = int_field "index" v in
            let* outcome_obj = require "outcome" v in
            let* outcome = decode_outcome outcome_obj in
            go ((index, outcome) :: acc) rest
        in
        go [] l
      | _ -> Error "field \"verdicts\" must be a list"
    in
    Ok { job_key; jobs; completed; finished; verdicts }
