(* The testable core of bench_check: parsing bench --json snapshots.  The
   executable keeps only IO and exit codes; the parser's edge cases are
   pinned by test/test_bench_check.ml. *)

module Json = Mechaml_obs.Json

(* (group, name) -> ns/run rows of a bench --json file.  [Error] when the
   top-level "benchmarks_ns_per_run" array is missing (not a bench --json
   file); rows whose value is null (a NaN estimate on that run) are
   dropped. *)
let benchmarks json =
  match Json.member "benchmarks_ns_per_run" json with
  | Some (Json.List rows) ->
    Ok
      (List.filter_map
         (fun row ->
           match
             ( Option.bind (Json.member "group" row) Json.to_str,
               Option.bind (Json.member "name" row) Json.to_str,
               Option.bind (Json.member "value" row) Json.to_float )
           with
           | Some g, Some n, Some v -> Some ((g, n), v)
           | _ -> None)
         rows)
  | _ -> Error "no \"benchmarks_ns_per_run\" array (not a bench --json file?)"

let human_ns ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns
