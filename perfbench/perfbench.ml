(* Benchmark entry point:
     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
   Prints a human-readable report and, as its last line, one JSON object
   with the run's metrics.  Exits non-zero without a result when an output
   oracle fails. *)

open Harness

let workloads =
  [
    ("synth", Synth.run);
    ("wide_sharded", Sharded.run_wide);
    ("serve", Serve.run);
  ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref "perfbench-out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the trace is written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline
        ("perfbench: unknown workload " ^ !workload ^ "; one of "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  let ctx =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out_dir = !out_dir;
      guard = Host.guard ();
      spans = Spans.create ();
    }
  in
  match report ctx (run ctx) with
  | () -> ()
  | exception Wrong m ->
    prerr_endline ("perfbench: output check failed: " ^ m);
    exit 1
