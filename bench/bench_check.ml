(* bench_check — CI-side validation of the observability artefacts:

     bench_check validate-trace FILE
       FILE must parse as JSON and be a top-level array of trace_event
       objects, each with a string "name"/"ph" and a numeric "ts" — the
       shape Perfetto and chrome://tracing load.

     bench_check validate-metrics FILE
       FILE must be Prometheus text exposition output with no duplicate
       # TYPE headers and no duplicate samples (same name and label set). *)

module Json = Mechaml_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_check: " ^ m); exit 1) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error m -> fail "%s" m

let parse_file path =
  match Json.parse (read_file path) with
  | Ok v -> v
  | Error m -> fail "%s: %s" path m

(* -- validate-trace ------------------------------------------------------- *)

let validate_trace path =
  let events =
    match parse_file path with
    | Json.List events -> events
    | _ -> fail "%s: top-level value is not an array" path
  in
  List.iteri
    (fun i ev ->
      let str k = Option.bind (Json.member k ev) Json.to_str in
      let num k = Option.bind (Json.member k ev) Json.to_float in
      match (str "name", str "ph", num "ts") with
      | Some _, Some _, Some _ -> ()
      | _ -> fail "%s: event %d lacks a string \"name\"/\"ph\" or numeric \"ts\"" path i)
    events;
  Printf.printf "ok: %s is a trace_event array of %d events\n" path (List.length events)

(* -- validate-metrics ----------------------------------------------------- *)

let validate_metrics path =
  let seen_types = Hashtbl.create 16 and seen_samples = Hashtbl.create 64 in
  let samples = ref 0 in
  String.split_on_char '\n' (read_file path)
  |> List.iteri (fun i line ->
         let lineno = i + 1 in
         if line = "" then ()
         else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
           let name =
             match String.split_on_char ' ' line with
             | _ :: _ :: name :: _ -> name
             | _ -> fail "%s:%d: malformed # TYPE line" path lineno
           in
           if Hashtbl.mem seen_types name then
             fail "%s:%d: duplicate # TYPE for %s" path lineno name;
           Hashtbl.add seen_types name ()
         end
         else if line.[0] = '#' then ()
         else begin
           (* a sample: [name{labels} value] — the series key is everything
              before the last space *)
           match String.rindex_opt line ' ' with
           | None -> fail "%s:%d: malformed sample line %S" path lineno line
           | Some sp ->
             let series = String.sub line 0 sp in
             if Hashtbl.mem seen_samples series then
               fail "%s:%d: duplicate sample for %s" path lineno series;
             Hashtbl.add seen_samples series ();
             incr samples
         end);
  Printf.printf "ok: %s has %d samples across %d metrics, no duplicates\n" path !samples
    (Hashtbl.length seen_types)

(* -- entry ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench_check validate-trace FILE\n\
    \       bench_check validate-metrics FILE";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "validate-trace"; path ] -> validate_trace path
  | [ _; "validate-metrics"; path ] -> validate_metrics path
  | _ -> usage ()
