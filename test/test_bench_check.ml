(* The bench_check snapshot parser: rows of a bench --json file, null
   estimates dropped, non-bench files rejected. *)

module Lib = Bench_check_lib
module Json = Mechaml_obs.Json
open Helpers

let row g n v = ((g, n), v)

let snapshot rows =
  Json.Obj
    [
      ( "benchmarks_ns_per_run",
        Json.List
          (List.map
             (fun ((g, n), v) ->
               Json.Obj
                 [ ("group", Json.Str g); ("name", Json.Str n); ("value", Json.Num v) ])
             rows) );
    ]

let unit_tests =
  [
    test "benchmarks parses rows and drops null estimates" (fun () ->
        let json =
          Json.Obj
            [
              ( "benchmarks_ns_per_run",
                Json.List
                  [
                    Json.Obj
                      [ ("group", Json.Str "g"); ("name", Json.Str "a");
                        ("value", Json.Num 10.) ];
                    Json.Obj
                      [ ("group", Json.Str "g"); ("name", Json.Str "b");
                        ("value", Json.Null) ];
                  ] );
            ]
        in
        match Lib.benchmarks json with
        | Ok rows -> Alcotest.(check int) "null dropped" 1 (List.length rows)
        | Error m -> Alcotest.fail m);
    test "benchmarks rejects a non-bench file" (fun () ->
        check_bool "error" true (Result.is_error (Lib.benchmarks (Json.Obj []))));
    test "snapshot round trip through the parser" (fun () ->
        let rows = [ row "g" "a" 12.5; row "g" "b" 1e6 ] in
        match Lib.benchmarks (snapshot rows) with
        | Ok parsed -> check_bool "identical" true (parsed = rows)
        | Error m -> Alcotest.fail m);
  ]

let () = Alcotest.run "bench_check" [ ("speedup", unit_tests) ]
