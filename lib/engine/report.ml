module Pp = Mechaml_util.Pp

(* -- plain-text ----------------------------------------------------------- *)

let human_duration s =
  if s >= 1. then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let cache_cell (c : Campaign.cache_counters) =
  let hits = c.Campaign.closure_hits + c.Campaign.check_hits in
  let lookups = hits + c.Campaign.closure_misses + c.Campaign.check_misses in
  if lookups = 0 then "-" else Printf.sprintf "%d/%d" hits lookups

(* Compressed retry/vote accounting for the table: "a:7 r:2 v:9 o:1" =
   attempts, retried, votes held, minority answers outvoted. *)
let supervision_cell (o : Campaign.outcome) =
  match o.Campaign.supervision with
  | None -> "-"
  | Some s ->
    Printf.sprintf "a:%d r:%d v:%d o:%d" s.Mechaml_legacy.Supervisor.attempts
      s.Mechaml_legacy.Supervisor.retried s.Mechaml_legacy.Supervisor.votes_held
      s.Mechaml_legacy.Supervisor.outvoted

let fault_cell (o : Campaign.outcome) = Option.value o.Campaign.fault ~default:"-"

(* Peak closure/product automaton sizes, "34/118". *)
let states_cell (o : Campaign.outcome) =
  if o.Campaign.max_closure_states = 0 && o.Campaign.max_product_states = 0 then "-"
  else Printf.sprintf "%d/%d" o.Campaign.max_closure_states o.Campaign.max_product_states

(* Per-phase wall-clock split, "c:1.2ms k:8.0ms q:0.3ms" = closure, check
   (compose + model check), driver queries. *)
let phases_cell (o : Campaign.outcome) =
  let total =
    o.Campaign.closure_seconds +. o.Campaign.check_seconds +. o.Campaign.test_seconds
  in
  if total = 0. then "-"
  else
    Printf.sprintf "c:%s k:%s q:%s"
      (human_duration o.Campaign.closure_seconds)
      (human_duration o.Campaign.check_seconds)
      (human_duration o.Campaign.test_seconds)

(* Incremental-reuse accounting, "d:44720" = closure delta edges.  "-" when
   the job ran from scratch (or never reached a second iteration). *)
let reuse_cell (o : Campaign.outcome) =
  if o.Campaign.closure_delta_edges = 0 then "-"
  else Printf.sprintf "d:%d" o.Campaign.closure_delta_edges

let table outcomes =
  Pp.table
    ~header:
      [ "job"; "verdict"; "fault"; "supervision"; "iters"; "states"; "facts"; "tests";
        "steps"; "attempts"; "cl/pr states"; "cache h/l"; "reuse"; "phases"; "time" ]
    (List.map
       (fun (o : Campaign.outcome) ->
         [
           o.Campaign.spec_id;
           Campaign.verdict_string o.Campaign.verdict;
           fault_cell o;
           supervision_cell o;
           string_of_int o.Campaign.iterations;
           string_of_int o.Campaign.states_learned;
           string_of_int o.Campaign.knowledge;
           string_of_int o.Campaign.tests_executed;
           string_of_int o.Campaign.test_steps;
           string_of_int o.Campaign.attempts;
           states_cell o;
           cache_cell o.Campaign.cache;
           reuse_cell o;
           phases_cell o;
           human_duration o.Campaign.duration_s;
         ])
       outcomes)

let aggregate outcomes =
  List.fold_left
    (fun (ch, cm, kh, km, d) (o : Campaign.outcome) ->
      ( ch + o.Campaign.cache.Campaign.closure_hits,
        cm + o.Campaign.cache.Campaign.closure_misses,
        kh + o.Campaign.cache.Campaign.check_hits,
        km + o.Campaign.cache.Campaign.check_misses,
        d +. o.Campaign.duration_s ))
    (0, 0, 0, 0, 0.) outcomes

let summary ?jobs outcomes =
  let count p = List.length (List.filter p outcomes) in
  let proved = count (fun o -> o.Campaign.verdict = Campaign.Proved) in
  let real =
    count (fun o ->
        match o.Campaign.verdict with
        | Campaign.Real_deadlock _ | Campaign.Real_property _ -> true
        | _ -> false)
  in
  let degraded =
    count (fun o ->
        match o.Campaign.verdict with Campaign.Degraded _ -> true | _ -> false)
  in
  let failed =
    count (fun o ->
        match o.Campaign.verdict with
        | Campaign.Failed _ | Campaign.Timed_out | Campaign.Exhausted -> true
        | _ -> false)
  in
  let ch, cm, kh, km, duration = aggregate outcomes in
  let hits = ch + kh and lookups = ch + cm + kh + km in
  Printf.sprintf
    "%d jobs%s: %d proved, %d real violations, %d degraded, %d failed/timed out/exhausted; \
     cache %d/%d hits (%.0f%%); %s total loop time"
    (List.length outcomes)
    (match jobs with Some j -> Printf.sprintf " on %d workers" j | None -> "")
    proved real degraded failed hits lookups
    (if lookups = 0 then 0. else 100. *. float_of_int hits /. float_of_int lookups)
    (human_duration duration)

(* -- JSON ----------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_verdict_fields (v : Campaign.verdict) =
  match v with
  | Campaign.Proved -> [ ("verdict", "\"proved\"") ]
  | Campaign.Real_deadlock { confirmed_by_test } ->
    [ ("verdict", "\"real_deadlock\""); ("confirmed_by_test", string_of_bool confirmed_by_test) ]
  | Campaign.Real_property { confirmed_by_test } ->
    [ ("verdict", "\"real_property\""); ("confirmed_by_test", string_of_bool confirmed_by_test) ]
  | Campaign.Exhausted -> [ ("verdict", "\"exhausted\"") ]
  | Campaign.Degraded { reason } ->
    [ ("verdict", "\"degraded\""); ("reason", Printf.sprintf "\"%s\"" (json_escape reason)) ]
  | Campaign.Timed_out -> [ ("verdict", "\"timed_out\"") ]
  | Campaign.Failed error ->
    [ ("verdict", "\"failed\""); ("error", Printf.sprintf "\"%s\"" (json_escape error)) ]

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"

let json_cache (c : Campaign.cache_counters) =
  json_obj
    [
      ("closure_hits", string_of_int c.Campaign.closure_hits);
      ("closure_misses", string_of_int c.Campaign.closure_misses);
      ("check_hits", string_of_int c.Campaign.check_hits);
      ("check_misses", string_of_int c.Campaign.check_misses);
    ]

let json_supervision (s : Mechaml_legacy.Supervisor.stats) =
  json_obj
    [
      ("queries", string_of_int s.Mechaml_legacy.Supervisor.queries);
      ("admitted", string_of_int s.Mechaml_legacy.Supervisor.admitted);
      ("attempts", string_of_int s.Mechaml_legacy.Supervisor.attempts);
      ("retried", string_of_int s.Mechaml_legacy.Supervisor.retried);
      ("crashes", string_of_int s.Mechaml_legacy.Supervisor.crashes);
      ("refused_connects", string_of_int s.Mechaml_legacy.Supervisor.refused_connects);
      ("divergences", string_of_int s.Mechaml_legacy.Supervisor.divergences);
      ("deadline_misses", string_of_int s.Mechaml_legacy.Supervisor.deadline_misses);
      ("votes_held", string_of_int s.Mechaml_legacy.Supervisor.votes_held);
      ("outvoted", string_of_int s.Mechaml_legacy.Supervisor.outvoted);
      ("breaker_trips", string_of_int s.Mechaml_legacy.Supervisor.breaker_trips);
      ("backoff_slept_s", Printf.sprintf "%.6f" s.Mechaml_legacy.Supervisor.backoff_slept);
    ]

let json_outcome (o : Campaign.outcome) =
  json_obj
    ([
       ("id", Printf.sprintf "\"%s\"" (json_escape o.Campaign.spec_id));
       ("family", Printf.sprintf "\"%s\"" (json_escape o.Campaign.family));
     ]
    @ json_verdict_fields o.Campaign.verdict
    @ (match o.Campaign.fault with
      | None -> []
      | Some f -> [ ("fault", Printf.sprintf "\"%s\"" (json_escape f)) ])
    @ [
        ("iterations", string_of_int o.Campaign.iterations);
        ("states_learned", string_of_int o.Campaign.states_learned);
        ("knowledge", string_of_int o.Campaign.knowledge);
        ("tests_executed", string_of_int o.Campaign.tests_executed);
        ("test_steps", string_of_int o.Campaign.test_steps);
        ("attempts", string_of_int o.Campaign.attempts);
        ("duration_s", Printf.sprintf "%.6f" o.Campaign.duration_s);
        ("closure_seconds", Printf.sprintf "%.6f" o.Campaign.closure_seconds);
        ("check_seconds", Printf.sprintf "%.6f" o.Campaign.check_seconds);
        ("test_seconds", Printf.sprintf "%.6f" o.Campaign.test_seconds);
        ("max_closure_states", string_of_int o.Campaign.max_closure_states);
        ("max_product_states", string_of_int o.Campaign.max_product_states);
        ("closure_delta_edges", string_of_int o.Campaign.closure_delta_edges);
        ("cache", json_cache o.Campaign.cache);
      ]
    @
    match o.Campaign.supervision with
    | None -> []
    | Some s -> [ ("supervision", json_supervision s) ])

let to_json ?jobs outcomes =
  let ch, cm, kh, km, duration = aggregate outcomes in
  let hits = ch + kh and lookups = ch + cm + kh + km in
  let cache =
    json_obj
      [
        ("closure_hits", string_of_int ch);
        ("closure_misses", string_of_int cm);
        ("check_hits", string_of_int kh);
        ("check_misses", string_of_int km);
        ( "hit_rate",
          Printf.sprintf "%.4f"
            (if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups) );
      ]
  in
  let fields =
    [ ("schema", "\"mechaml-campaign/1\"") ]
    @ (match jobs with Some j -> [ ("jobs", string_of_int j) ] | None -> [])
    @ [
        ("job_count", string_of_int (List.length outcomes));
        ("total_duration_s", Printf.sprintf "%.6f" duration);
        ("cache", cache);
        ("results", "[\n  " ^ String.concat ",\n  " (List.map json_outcome outcomes) ^ "\n]");
      ]
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "\n}\n"

(* -- CSV ------------------------------------------------------------------ *)

(* RFC 4180: quote when the field contains a separator, a quote, or a line
   break (CR as well as LF — a bare CR also breaks naive CSV readers);
   embedded quotes are doubled. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv outcomes =
  let header =
    "id,family,verdict,confirmed_by_test,error,fault,iterations,states_learned,knowledge,\
     tests_executed,test_steps,attempts,duration_s,closure_seconds,check_seconds,\
     test_seconds,max_closure_states,max_product_states,closure_delta_edges,\
     closure_hits,closure_misses,check_hits,check_misses,sup_attempts,sup_retried,sup_crashes,sup_divergences,\
     sup_votes_held,sup_outvoted,sup_breaker_trips"
  in
  let row (o : Campaign.outcome) =
    let confirmed, error =
      match o.Campaign.verdict with
      | Campaign.Real_deadlock { confirmed_by_test } | Campaign.Real_property { confirmed_by_test }
        ->
        (string_of_bool confirmed_by_test, "")
      | Campaign.Failed e -> ("", e)
      | Campaign.Degraded { reason } -> ("", reason)
      | _ -> ("", "")
    in
    let tag =
      match o.Campaign.verdict with
      | Campaign.Proved -> "proved"
      | Campaign.Real_deadlock _ -> "real_deadlock"
      | Campaign.Real_property _ -> "real_property"
      | Campaign.Exhausted -> "exhausted"
      | Campaign.Degraded _ -> "degraded"
      | Campaign.Timed_out -> "timed_out"
      | Campaign.Failed _ -> "failed"
    in
    let sup f =
      match o.Campaign.supervision with
      | None -> ""
      | Some s -> string_of_int (f s)
    in
    let open Mechaml_legacy.Supervisor in
    String.concat ","
      (List.map csv_field
         [
           o.Campaign.spec_id;
           o.Campaign.family;
           tag;
           confirmed;
           error;
           Option.value o.Campaign.fault ~default:"";
           string_of_int o.Campaign.iterations;
           string_of_int o.Campaign.states_learned;
           string_of_int o.Campaign.knowledge;
           string_of_int o.Campaign.tests_executed;
           string_of_int o.Campaign.test_steps;
           string_of_int o.Campaign.attempts;
           Printf.sprintf "%.6f" o.Campaign.duration_s;
           Printf.sprintf "%.6f" o.Campaign.closure_seconds;
           Printf.sprintf "%.6f" o.Campaign.check_seconds;
           Printf.sprintf "%.6f" o.Campaign.test_seconds;
           string_of_int o.Campaign.max_closure_states;
           string_of_int o.Campaign.max_product_states;
           string_of_int o.Campaign.closure_delta_edges;
           string_of_int o.Campaign.cache.Campaign.closure_hits;
           string_of_int o.Campaign.cache.Campaign.closure_misses;
           string_of_int o.Campaign.cache.Campaign.check_hits;
           string_of_int o.Campaign.cache.Campaign.check_misses;
           sup (fun s -> s.attempts);
           sup (fun s -> s.retried);
           sup (fun s -> s.crashes);
           sup (fun s -> s.divergences);
           sup (fun s -> s.votes_held);
           sup (fun s -> s.outvoted);
           sup (fun s -> s.breaker_trips);
         ])
  in
  String.concat "\n" (header :: List.map row outcomes) ^ "\n"

(* -- canonical form ------------------------------------------------------- *)

let canonical outcomes =
  let line (o : Campaign.outcome) =
    Printf.sprintf "%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d" o.Campaign.spec_id
      (match o.Campaign.verdict with
      | Campaign.Failed e -> "failed: " ^ e
      | Campaign.Degraded { reason } -> "degraded: " ^ reason
      | v -> Campaign.verdict_string v)
      (fault_cell o) o.Campaign.iterations o.Campaign.states_learned o.Campaign.knowledge
      o.Campaign.max_closure_states o.Campaign.max_product_states o.Campaign.tests_executed
      o.Campaign.test_steps o.Campaign.attempts
  in
  String.concat "\n" (List.sort compare (List.map line outcomes)) ^ "\n"

(* -- IO ------------------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir ->
      (* a concurrent job created it between the check and the mkdir *)
      ()
  end

let save ~path content =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
