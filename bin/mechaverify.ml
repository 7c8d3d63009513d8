(* mechaverify — command-line front end for the legacy-component integration
   workflow: run the iterative behavior synthesis on the bundled scenarios,
   verify patterns, export figures, and compare against the learning
   baselines. *)

module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Chaos = Mechaml_core.Chaos
module Witness = Mechaml_mc.Witness
module Checker = Mechaml_mc.Checker
module Dot = Mechaml_ts.Dot
module Shard = Mechaml_ts.Shard
module Railcab = Mechaml_scenarios.Railcab
module Protocol = Mechaml_scenarios.Protocol
module Watchdog = Mechaml_scenarios.Watchdog
module Families = Mechaml_scenarios.Families
module Listing = Mechaml_scenarios.Listing
module Faults = Mechaml_legacy.Faults
module Supervisor = Mechaml_legacy.Supervisor
module Obs_log = Mechaml_obs.Log
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics
open Cmdliner

let verbose_t =
  let doc = "Log each iteration of the synthesis loop (shorthand for --log-level info)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let strategy_t =
  let doc = "Counterexample search strategy: $(b,bfs) (shortest) or $(b,dfs) (first found)." in
  let strategy_conv =
    Arg.enum [ ("bfs", Witness.Bfs_shortest); ("dfs", Witness.Dfs_first) ]
  in
  Arg.(value & opt strategy_conv Witness.Bfs_shortest & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let dot_dir_t =
  let doc = "Write DOT figures (learned model, closure) into $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"DIR" ~doc)

(* -- incremental re-verification (shared by run and campaign) -- *)

let no_incremental_t =
  let doc =
    "Recompute the chaotic closure, the parallel product and every CCTL fixpoint from \
     scratch each iteration instead of updating the previous iteration's results.  \
     Verdicts are identical either way; this only trades speed for simpler profiling."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let incremental_debug_t =
  let doc =
    "Cross-check incremental re-verification: recompute every updated closure and \
     warm-started fixpoint from scratch as well and abort on any divergence.  Slower \
     than both modes combined; a correctness harness, not a production setting."
  in
  Arg.(value & flag & info [ "incremental-debug" ] ~doc)

(* -- sharded, out-of-core exploration (shared by run, campaign and serve) -- *)

let shards_t =
  let doc =
    "Partition the product exploration and the model-checking fixpoints into $(docv) \
     shards by state-key hash.  Verdicts, witnesses and canonical reports are \
     byte-identical for every shard count; sharding only changes memory locality and \
     enables $(b,--mem-budget) spilling."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let mem_budget_t =
  let doc =
    "Residency watermark for the sharded product, e.g. $(b,64M) or $(b,2G) (suffixes \
     K/M/G, plain bytes otherwise).  Cold shard segments beyond the watermark spill to \
     disk and reload on demand."
  in
  Arg.(value & opt (some string) None & info [ "mem-budget" ] ~docv:"BYTES" ~doc)

let spill_dir_t =
  let doc =
    "Parent directory for spill files (default: the system temp dir).  The per-run \
     subdirectory is removed when the run completes."
  in
  Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR" ~doc)

let dist_workers_t =
  let doc =
    "Run the sharded build and the model-checking fixpoints on $(docv) local worker \
     $(i,processes) (spawned as $(b,mechaverify shard-worker)) instead of in-process \
     domains.  Workers expand each BFS level's frontiers and hold their shards' \
     segments for the checks; the coordinator interns, merges and finalizes the \
     product itself.  Verdicts and canonical reports are byte-identical for every \
     worker count."
  in
  Arg.(value & opt int 0 & info [ "dist-workers" ] ~docv:"N" ~doc)

let dist_connect_t =
  let doc =
    "Comma-separated addresses ($(b,host:port) or Unix socket paths) of pre-started \
     $(b,mechaverify shard-worker) processes to run the sharded exploration on.  \
     Mutually exclusive with $(b,--dist-workers)."
  in
  Arg.(value & opt (some string) None & info [ "dist-connect" ] ~docv:"ADDRS" ~doc)

let dist_deadline_t =
  let doc =
    "Per-round worker reply deadline in seconds (default 120).  A worker silent for \
     longer is declared dead and replaced; its request is sent again, or after the \
     build its shards are reinstalled from the coordinator's finished segments."
  in
  Arg.(value & opt float 120. & info [ "dist-deadline" ] ~docv:"SEC" ~doc)

let parse_size s =
  let fail () = Error (Printf.sprintf "cannot parse size %S (expected e.g. 512K, 64M, 2G)" s) in
  let n = String.length s in
  if n = 0 then fail ()
  else
    let mult, digits =
      match s.[n - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | '0' .. '9' -> (1, s)
      | _ -> (0, "")
    in
    if mult = 0 then fail ()
    else
      match int_of_string_opt digits with
      | Some v when v > 0 -> Ok (v * mult)
      | _ -> fail ()

(* [None] when every flag is at its default: the loop then explores one
   unbudgeted shard in process, which is also what [--shards 1] alone
   means.  Every configuration runs the same check path; the flags only
   lay the product out differently or move it to a fleet. *)
let sharding_of ~shards ~mem_budget ~spill_dir ?(dist_workers = 0) ?dist_connect
    ?(dist_deadline = 120.) () =
  let input_error msg =
    Format.eprintf "mechaverify: %s@." msg;
    exit 3
  in
  if shards < 1 then input_error "--shards must be at least 1";
  let budget =
    Option.map
      (fun s -> match parse_size s with Ok v -> v | Error msg -> input_error msg)
      mem_budget
  in
  if dist_deadline <= 0. then input_error "--dist-deadline must be positive";
  let distribution =
    match (dist_workers, dist_connect) with
    | 0, None -> None
    | _, Some _ when dist_workers <> 0 ->
      input_error "--dist-workers and --dist-connect are mutually exclusive"
    | n, None ->
      if n < 1 then input_error "--dist-workers must be at least 1";
      Some (Shard.distribution ~deadline_s:dist_deadline (Shard.Fork n))
    | _, Some s ->
      let addrs =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun a -> a <> "")
      in
      if addrs = [] then input_error "--dist-connect needs at least one address";
      Some (Shard.distribution ~deadline_s:dist_deadline (Shard.Connect addrs))
  in
  if shards = 1 && budget = None && spill_dir = None && distribution = None then None
  else Some (Shard.config ~shards ?mem_budget:budget ?spill_dir ?distribution ())

(* -- fault injection & supervision (shared by run and campaign) -- *)

let inject_t =
  let doc =
    Printf.sprintf
      "Wrap the legacy driver in a fault profile (%s, or a $(b,+) combination such as \
       $(b,crash+flaky)).  Implies supervised execution."
      (String.concat ", " (List.map fst Faults.profiles))
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"PROFILE" ~doc)

let seed_t =
  let doc = "Seed for fault schedules and supervisor backoff jitter." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let deadline_ms_t =
  let doc = "Per-query wall-clock deadline (milliseconds) for the supervised driver." in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let votes_t =
  let doc =
    "Repetitions per driver query; an observation is admitted only once a quorum of votes \
     agree on it bit-for-bit."
  in
  Arg.(value & opt (some int) None & info [ "votes" ] ~docv:"K" ~doc)

let quorum_t =
  let doc = "Agreeing votes needed to admit an observation (default: majority of --votes)." in
  Arg.(value & opt (some int) None & info [ "quorum" ] ~docv:"K" ~doc)

let breaker_t =
  let doc =
    "Consecutive failed driver attempts before the circuit breaker opens and the run \
     degrades to the chaotic closure of the knowledge gathered so far."
  in
  Arg.(value & opt (some int) None & info [ "breaker" ] ~docv:"N" ~doc)

let policy_of ~deadline_ms ~votes ~quorum ~breaker =
  match (deadline_ms, votes, quorum, breaker) with
  | None, None, None, None -> None
  | _ ->
    let d = Supervisor.default_policy in
    Some
      {
        d with
        Supervisor.deadline =
          (match deadline_ms with
          | Some ms -> Some (ms /. 1e3)
          | None -> d.Supervisor.deadline);
        votes = Option.value votes ~default:d.Supervisor.votes;
        quorum = (match quorum with Some _ -> quorum | None -> d.Supervisor.quorum);
        breaker = Option.value breaker ~default:d.Supervisor.breaker;
      }

(* Create [dir] and any missing parents; tolerate a directory that appears
   concurrently (e.g. two campaign jobs exporting into the same tree). *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* -- observability (shared by every subcommand) -- *)

let log_level_t =
  let doc =
    "Progress verbosity: $(b,quiet), $(b,error), $(b,warn), $(b,info) or $(b,debug).  \
     $(b,quiet) silences the synthesis-loop progress output entirely."
  in
  let level_conv =
    Arg.conv
      ( (fun s ->
          match Obs_log.level_of_string s with Ok l -> Ok l | Error m -> Error (`Msg m)),
        fun ppf l -> Format.pp_print_string ppf (Obs_log.level_to_string l) )
  in
  Arg.(value & opt (some level_conv) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let trace_t =
  let doc =
    "Record spans of the run (loop iterations, closures, model checks, driver queries, \
     pool tasks) into $(docv) as a Chrome trace_event JSON array — load it in Perfetto \
     or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_out_t =
  let doc =
    "Collect metrics during the run and write them to $(docv) on exit: Prometheus text \
     exposition format, or JSON when $(docv) ends in $(b,.json)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let save_text ~path body =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body)

(* Outputs are written from [at_exit] so they survive the subcommands' [exit]
   calls; by then the pool has joined its workers, so the trace buffers are
   quiescent as [Trace.export] requires. *)
let setup_obs verbose log_level trace metrics_out =
  let level =
    match (log_level, verbose) with
    | Some l, _ -> l
    | None, true -> Obs_log.Info
    | None, false -> Obs_log.Warn
  in
  Obs_log.set_level level;
  Option.iter
    (fun path ->
      Trace.enable ();
      at_exit (fun () -> Trace.write ~path))
    trace;
  Option.iter
    (fun path ->
      Metrics.set_enabled true;
      at_exit (fun () ->
        let body =
          if Filename.check_suffix path ".json" then Metrics.to_json ()
          else Metrics.to_prometheus ()
        in
        save_text ~path body))
    metrics_out

let obs_t = Term.(const setup_obs $ verbose_t $ log_level_t $ trace_t $ metrics_out_t)

let save_dot dir name dot =
  match dir with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    let path = Filename.concat dir (name ^ ".dot") in
    Dot.save ~path dot;
    Format.printf "wrote %s@." path

let report ?(left = "context") ?(right = "legacy") dot_dir (r : Loop.result) =
  Format.printf "%a@.@." Loop.pp_result r;
  (match r.Loop.verdict with
  | Loop.Real_violation { witness; product; _ } ->
    let product = Lazy.force product in
    Format.printf "Counterexample:@.%s@." (Listing.render ~left_name:left ~right_name:right product witness)
  | _ -> ());
  Format.printf "Learned model:@.%a@." Incomplete.pp r.Loop.final_model;
  save_dot dot_dir "learned_model" (Dot.of_automaton (Incomplete.to_automaton r.Loop.final_model));
  match r.Loop.verdict with
  | Loop.Real_violation _ -> 1
  | Loop.Proved -> 0
  | Loop.Exhausted _ -> 2
  | Loop.Degraded _ -> 4

(* -- railcab -- *)

let variant_t names =
  let doc = Printf.sprintf "Legacy component variant: %s." (String.concat " or " names) in
  Arg.(value & opt string (List.hd names) & info [ "variant" ] ~docv:"VARIANT" ~doc)

let railcab_cmd =
  let run () strategy dot_dir variant =
    let r =
      match variant with
      | "correct" -> Railcab.run_correct ~strategy ()
      | "conflicting" -> Railcab.run_conflicting ~strategy ()
      | v -> failwith (Printf.sprintf "unknown variant %S (correct|conflicting)" v)
    in
    exit (report ~left:"shuttle1" ~right:"shuttle2" dot_dir r)
  in
  let doc = "Integrate a legacy rear-role shuttle into the DistanceCoordination pattern." in
  Cmd.v (Cmd.info "railcab" ~doc)
    Term.(const run $ obs_t $ strategy_t $ dot_dir_t $ variant_t [ "correct"; "conflicting" ])

(* -- protocol -- *)

let protocol_cmd =
  let run () strategy dot_dir variant =
    let r =
      match variant with
      | "correct" -> Protocol.run_correct ~strategy ()
      | "faulty" -> Protocol.run_fire_and_forget ~strategy ()
      | v -> failwith (Printf.sprintf "unknown variant %S (correct|faulty)" v)
    in
    exit (report ~left:"receiver" ~right:"sender" dot_dir r)
  in
  let doc = "Integrate a legacy stop-and-wait sender against the receiver context." in
  Cmd.v (Cmd.info "protocol" ~doc)
    Term.(const run $ obs_t $ strategy_t $ dot_dir_t $ variant_t [ "correct"; "faulty" ])

(* -- lock -- *)

let lock_cmd =
  let n_t =
    Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc:"Secret length of the lock.")
  in
  let depth_t =
    Arg.(value & opt int 4 & info [ "depth" ] ~docv:"D" ~doc:"Prefix length the context exercises.")
  in
  let baseline_t =
    let doc = "Also run a baseline: $(b,lstar) or $(b,amc)." in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"B" ~doc)
  in
  let run () strategy dot_dir n depth baseline =
    let r =
      Loop.run ~strategy ~label_of:Families.lock_label_of
        ~context:(Families.lock_context ~n ~depth) ~property:Families.lock_property
        ~legacy:(Families.lock_box ~n) ()
    in
    let code = report ~left:"context" ~right:"lock" dot_dir r in
    (match baseline with
    | Some "lstar" ->
      let truth =
        Mechaml_learnlib.Mealy.of_automaton ~alphabet:Families.lock_alphabet
          (Families.lock_legacy ~n)
      in
      let l =
        Mechaml_learnlib.Lstar.learn ~box:(Families.lock_box ~n)
          ~alphabet:Families.lock_alphabet
          ~equivalence:(Mechaml_learnlib.Lstar.Perfect truth) ()
      in
      Format.printf "@.L* baseline: %d states learned, %d output queries, %d symbols@."
        (Mechaml_learnlib.Mealy.num_states l.Mechaml_learnlib.Lstar.hypothesis)
        l.Mechaml_learnlib.Lstar.stats.Mechaml_learnlib.Oracle.output_queries
        l.Mechaml_learnlib.Lstar.stats.Mechaml_learnlib.Oracle.symbols
    | Some "amc" ->
      let a =
        Mechaml_learnlib.Amc.verify ~box:(Families.lock_box ~n)
          ~context:(Families.lock_context ~n ~depth) ~alphabet:Families.lock_alphabet
          ~state_bound:(n + 1) ()
      in
      Format.printf "@.AMC baseline: %d hypothesis states, %d output queries, %d symbols@."
        a.Mechaml_learnlib.Amc.hypothesis_states
        a.Mechaml_learnlib.Amc.stats.Mechaml_learnlib.Oracle.output_queries
        a.Mechaml_learnlib.Amc.stats.Mechaml_learnlib.Oracle.symbols
    | Some b -> failwith (Printf.sprintf "unknown baseline %S" b)
    | None -> ());
    exit code
  in
  let doc = "Integrate a combination-lock legacy component against a prefix-bounded context." in
  Cmd.v (Cmd.info "lock" ~doc)
    Term.(const run $ obs_t $ strategy_t $ dot_dir_t $ n_t $ depth_t $ baseline_t)

(* -- run: user-supplied models -- *)

let load_automaton path =
  match Mechaml_ts.Textio.load ~path with
  | Ok m -> m
  | Error { line; message } ->
    Format.eprintf "%s:%d: %s@." path line message;
    exit 3

let run_cmd =
  let context_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "context" ] ~docv:"FILE" ~doc:"Context automaton in the textio format.")
  in
  let legacy_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "legacy" ] ~docv:"FILE"
          ~doc:
            "Legacy component in the textio format (executed as a black box; must be \
             input-deterministic).")
  in
  let property_t =
    Arg.(
      value
      & opt string "true"
      & info [ "property" ] ~docv:"CCTL"
          ~doc:"Compositional property, e.g. 'AG (not (a.bad and b.worse))'.")
  in
  let prefix_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "label-prefix" ] ~docv:"PREFIX"
          ~doc:
            "Label learned states hierarchically with this prefix (default: the legacy \
             automaton's name followed by a dot).")
  in
  let knowledge_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "knowledge" ] ~docv:"FILE"
          ~doc:"Seed the loop with a learned model saved by --save-knowledge (grey-box).")
  in
  let save_knowledge_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-knowledge" ] ~docv:"FILE"
          ~doc:"Persist the final learned model for later sessions.")
  in
  let batch_t =
    Arg.(
      value
      & opt int 1
      & info [ "batch" ] ~docv:"K" ~doc:"Counterexamples tested per model-checking round.")
  in
  let journal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append every executed observation to a crash-safe journal at $(docv) as it \
             happens (one flushed line per observation).")
  in
  let resume_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Replay the journal of an interrupted run into the starting model, then keep \
             appending to the same file.  A torn final record (killed mid-write) is \
             tolerated.")
  in
  let snapshot_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Atomically rewrite a knowledge snapshot (write-temp + rename) whenever the \
             learned model grows; loadable later with --knowledge.")
  in
  let run () strategy dot_dir context_path legacy_path property prefix knowledge
      save_knowledge batch inject seed deadline_ms votes quorum breaker journal resume
      snapshot no_incremental incremental_debug shards mem_budget spill_dir dist_workers
      dist_connect dist_deadline =
    let sharding =
      sharding_of ~shards ~mem_budget ~spill_dir ~dist_workers ?dist_connect ~dist_deadline
        ()
    in
    let context = load_automaton context_path in
    let legacy_auto = load_automaton legacy_path in
    let box = Mechaml_legacy.Blackbox.of_automaton legacy_auto in
    let box =
      match inject with
      | None -> box
      | Some profile -> (
        match Faults.of_string ~seed profile with
        | Ok wrap -> wrap box
        | Error msg ->
          Format.eprintf "mechaverify: %s@." msg;
          exit 3)
    in
    let policy = policy_of ~deadline_ms ~votes ~quorum ~breaker in
    let supervisor =
      match (inject, policy) with
      | None, None -> None
      | _ -> Some (Supervisor.create ~seed ?policy box)
    in
    let observe =
      Option.map (fun sup ~inputs -> Supervisor.observe_hook sup ~inputs) supervisor
    in
    let property = Mechaml_logic.Parser.parse_exn property in
    let prefix =
      Option.value prefix ~default:(legacy_auto.Mechaml_ts.Automaton.name ^ ".")
    in
    let label_of = Mechaml_scenarios.Labels.hierarchical ~prefix in
    let initial_knowledge =
      Option.map
        (fun path ->
          match Mechaml_core.Knowledge_io.load ~path with
          | Ok k -> k
          | Error { line; message } ->
            Format.eprintf "%s:%d: %s@." path line message;
            exit 3)
        knowledge
    in
    let r =
      Loop.run ~strategy ~label_of ?initial_knowledge ~counterexamples_per_iteration:batch
        ?observe ?journal ?resume ?snapshot ~incremental:(not no_incremental)
        ~incremental_debug ?sharding ~context ~property ~legacy:box ()
    in
    Option.iter
      (fun path ->
        Mechaml_core.Knowledge_io.save ~path r.Loop.final_model;
        Format.printf "learned model saved to %s@." path)
      save_knowledge;
    Option.iter
      (fun sup ->
        Format.printf "Supervision:@.%a@." Supervisor.pp_stats (Supervisor.stats sup))
      supervisor;
    exit
      (report ~left:context.Mechaml_ts.Automaton.name
         ~right:legacy_auto.Mechaml_ts.Automaton.name dot_dir r)
  in
  let doc = "Run the synthesis loop on user-supplied context and legacy automata files." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ obs_t $ strategy_t $ dot_dir_t $ context_t $ legacy_t $ property_t
      $ prefix_t $ knowledge_t $ save_knowledge_t $ batch_t $ inject_t $ seed_t
      $ deadline_ms_t $ votes_t $ quorum_t $ breaker_t $ journal_t $ resume_t $ snapshot_t
      $ no_incremental_t $ incremental_debug_t $ shards_t $ mem_budget_t $ spill_dir_t
      $ dist_workers_t $ dist_connect_t $ dist_deadline_t)

(* -- learn: whole-component learning baseline on a file -- *)

let learn_cmd =
  let legacy_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "legacy" ] ~docv:"FILE" ~doc:"Legacy component in the textio format.")
  in
  let bound_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound" ] ~docv:"N"
          ~doc:"Assumed state bound for the W-method oracle (default: the true count).")
  in
  let run () legacy_path bound =
    let legacy_auto = load_automaton legacy_path in
    let box = Mechaml_legacy.Blackbox.of_automaton legacy_auto in
    let alphabet =
      Mechaml_learnlib.Lstar.alphabet_of_signals box.Mechaml_legacy.Blackbox.input_signals
    in
    let bound = Option.value bound ~default:box.Mechaml_legacy.Blackbox.state_bound in
    let r =
      Mechaml_learnlib.Lstar.learn ~box ~alphabet
        ~equivalence:(Mechaml_learnlib.Lstar.Wmethod { extra_states = bound })
        ()
    in
    let stats = r.Mechaml_learnlib.Lstar.stats in
    Format.printf "learned %d states in %d rounds; %d output queries, %d symbols, %d resets@.@."
      (Mechaml_learnlib.Mealy.num_states r.Mechaml_learnlib.Lstar.hypothesis)
      r.Mechaml_learnlib.Lstar.rounds stats.Mechaml_learnlib.Oracle.output_queries
      stats.Mechaml_learnlib.Oracle.symbols stats.Mechaml_learnlib.Oracle.resets;
    print_string
      (Mechaml_ts.Textio.print
         (Mechaml_learnlib.Mealy.to_automaton ~name:(legacy_auto.Mechaml_ts.Automaton.name ^ "_learned")
            r.Mechaml_learnlib.Lstar.hypothesis))
  in
  let doc = "Learn a component's full Mealy model with L* + W-method (the baseline)." in
  Cmd.v (Cmd.info "learn" ~doc) Term.(const run $ obs_t $ legacy_t $ bound_t)

(* -- campaign: batch verification over the bundled scenario matrix -- *)

let campaign_cmd =
  let module Campaign = Mechaml_engine.Campaign in
  let module Report = Mechaml_engine.Report in
  let jobs_t =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains.  $(b,1) executes sequentially in matrix order; any $(docv) \
             produces the same verdicts (only timings and per-job cache counters move).")
  in
  let report_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Write the JSON campaign report to $(docv).")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the CSV campaign report to $(docv).")
  in
  let canonical_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "canonical" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic canonical digest to $(docv) — independent of worker \
             count, caching and timings, so runs can be compared byte-for-byte.")
  in
  let tiny_t =
    let doc = "Run the four-job smoke matrix instead of the full bundled one." in
    Arg.(value & flag & info [ "tiny" ] ~doc)
  in
  let select_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "select" ] ~docv:"SUBSTR"
          ~doc:"Only run jobs whose id contains $(docv) (e.g. $(b,railcab) or $(b,/dfs)).")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:"Wall-clock budget per job, enforced between loop stages.")
  in
  let retries_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"K"
          ~doc:"Override every job's retry budget for crashed attempts.")
  in
  let no_cache_t =
    let doc = "Disable the memo cache (every job recomputes all closures and checks)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let run () jobs report csv canonical tiny select timeout retries no_cache inject seed
      deadline_ms votes quorum breaker no_incremental incremental_debug shards mem_budget
      spill_dir dist_workers dist_connect dist_deadline =
    let sharding =
      sharding_of ~shards ~mem_budget ~spill_dir ~dist_workers ?dist_connect ~dist_deadline
        ()
    in
    let input_error msg =
      Format.eprintf "mechaverify: %s@." msg;
      exit 3
    in
    if jobs < 1 then input_error "--jobs must be at least 1";
    (match inject with
    | Some profile when Result.is_error (Faults.of_string ~seed profile) ->
      input_error
        (match Faults.of_string ~seed profile with Error m -> m | Ok _ -> assert false)
    | _ -> ());
    let specs = Campaign.bundled ~tiny () in
    let specs =
      match select with
      | None -> specs
      | Some sub -> List.filter (fun s -> contains ~sub s.Campaign.id) specs
    in
    if specs = [] then input_error "--select matches no job id";
    let policy = policy_of ~deadline_ms ~votes ~quorum ~breaker in
    let specs =
      List.map
        (fun s ->
          let s =
            match timeout with None -> s | Some t -> { s with Campaign.timeout = Some t }
          in
          let s =
            match retries with None -> s | Some k -> { s with Campaign.retries = k }
          in
          let s =
            match inject with
            | None -> s
            | Some _ -> { s with Campaign.inject = inject; Campaign.seed = seed }
          in
          match policy with None -> s | Some _ -> { s with Campaign.policy = policy })
        specs
    in
    let t0 = Unix.gettimeofday () in
    let outcomes =
      Campaign.run ~jobs ~memo:(not no_cache) ~incremental:(not no_incremental)
        ~incremental_debug ?sharding specs
    in
    let wall = Unix.gettimeofday () -. t0 in
    print_endline (Report.table outcomes);
    Format.printf "%s; %.2f s wall@." (Report.summary ~jobs outcomes) wall;
    Option.iter
      (fun path ->
        Report.save ~path (Report.to_json ~jobs outcomes);
        Format.printf "wrote %s@." path)
      report;
    Option.iter
      (fun path ->
        Report.save ~path (Report.to_csv outcomes);
        Format.printf "wrote %s@." path)
      csv;
    Option.iter
      (fun path ->
        Report.save ~path (Report.canonical outcomes);
        Format.printf "wrote %s@." path)
      canonical;
    exit 0
  in
  let doc =
    "Run a verification campaign: the bundled scenario matrix (scenario × property × \
     strategy × legacy fault variant) through the synthesis loop, on a worker pool with \
     memoized model checking."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ obs_t $ jobs_t $ report_t $ csv_t $ canonical_t $ tiny_t $ select_t
      $ timeout_t $ retries_t $ no_cache_t $ inject_t $ seed_t $ deadline_ms_t $ votes_t
      $ quorum_t $ breaker_t $ no_incremental_t $ incremental_debug_t $ shards_t
      $ mem_budget_t $ spill_dir_t $ dist_workers_t $ dist_connect_t $ dist_deadline_t)

(* -- export: bundled scenario automata as textio files -- *)

let export_cmd =
  let dir_t =
    Arg.(
      value
      & opt string "export"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Directory to write the automata into.")
  in
  let run () dir =
    mkdir_p dir;
    let save name auto =
      let path = Filename.concat dir (name ^ ".aut") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Mechaml_ts.Textio.print auto));
      Format.printf "wrote %s@." path
    in
    save "railcab_context" Railcab.context;
    save "railcab_legacy_correct" Railcab.legacy_correct;
    save "railcab_legacy_conflicting" Railcab.legacy_conflicting;
    save "protocol_receiver" Protocol.receiver;
    save "protocol_sender_correct" Protocol.sender_correct;
    save "protocol_sender_fire_and_forget" Protocol.sender_fire_and_forget;
    save "watchdog_context" Watchdog.watchdog;
    save "watchdog_controller_prompt" Watchdog.controller_prompt;
    save "watchdog_controller_sluggish" Watchdog.controller_sluggish
  in
  let doc =
    "Export the bundled scenario automata as textio files, ready for $(b,mechaverify run) \
     --context/--legacy (e.g. to drive fault-injected runs with --journal/--resume)."
  in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ obs_t $ dir_t)

(* -- pattern -- *)

let pattern_cmd =
  let run () =
    match Mechaml_muml.Pattern.verify Railcab.pattern with
    | Checker.Holds ->
      Format.printf "DistanceCoordination: constraint, role invariants and deadlock freedom hold.@."
    | Checker.Violated { formula; explanation; _ } ->
      Format.printf "violated %s (%s)@." (Mechaml_logic.Ctl.to_string formula) explanation;
      exit 1
  in
  let doc = "Verify the DistanceCoordination pattern upfront (roles only, no legacy code)." in
  Cmd.v (Cmd.info "pattern" ~doc) Term.(const run $ obs_t)

(* -- serve: the persistent verification daemon -- *)

let host_t =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let port_t ~default ~doc = Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let module Server = Mechaml_serve.Server in
  let workers_t =
    Arg.(
      value
      & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains executing verification jobs.")
  in
  let handlers_t =
    Arg.(
      value
      & opt int 4
      & info [ "handlers" ] ~docv:"N" ~doc:"Connection-handler domains.")
  in
  let queue_bound_t =
    Arg.(
      value
      & opt int 256
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admission control: submissions beyond $(docv) queued jobs are answered \
             $(b,429) with a $(b,Retry-After) hint.")
  in
  let inflight_cap_t =
    Arg.(
      value
      & opt int 64
      & info [ "inflight-cap" ] ~docv:"N"
          ~doc:"Per-tenant cap on concurrently running jobs.")
  in
  let weight_t =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "weight" ] ~docv:"TENANT=W"
          ~doc:
            "Round-robin weight for a tenant (repeatable); a weight-3 tenant gets ~3x \
             the job slots of a weight-1 tenant under contention.")
  in
  let cache_capacity_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"LRU bound on the shared memo cache (default: unbounded).")
  in
  let snapshot_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Cache snapshot: loaded at startup when present, rewritten atomically on \
             shutdown (and every --snapshot-every seconds), so a restarted daemon comes \
             back warm.")
  in
  let snapshot_every_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "snapshot-every" ] ~docv:"SEC"
          ~doc:"Also snapshot the cache periodically (requires --snapshot).")
  in
  let drain_deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "drain-deadline" ] ~docv:"SEC"
          ~doc:
            "On SIGTERM/SIGINT, discard jobs still queued after $(docv) seconds \
             (running jobs always finish; their clients get stand-in failed verdicts).")
  in
  let job_deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "job-deadline" ] ~docv:"SEC"
          ~doc:
            "Default per-job execution deadline: the job's wall-clock budget is clamped \
             to $(docv) and a watchdog abandons it (stand-in failed verdict, poison \
             strike) if it overruns anyway.  Submissions can override per request.")
  in
  let wal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead log: accepted submissions and verdicts are journaled to $(docv) \
             and a restarted daemon re-runs only the jobs that had no verdict yet.")
  in
  let io_timeout_t =
    Arg.(
      value
      & opt float 30.
      & info [ "io-timeout" ] ~docv:"SEC"
          ~doc:
            "Per-connection socket read/write deadline ($(b,0) disables): a slow or dead \
             peer costs a handler domain at most this long.")
  in
  let max_pending_t =
    Arg.(
      value
      & opt int 128
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Accepted-but-unserved connection cap; excess connections are closed.")
  in
  let quarantine_strikes_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "quarantine-strikes" ] ~docv:"K"
          ~doc:"Timeouts/watchdog kills before a job spec is quarantined (default 2).")
  in
  let quarantine_ttl_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "quarantine-ttl" ] ~docv:"SEC"
          ~doc:
            "How long a quarantined spec is refused (stand-in failed verdicts) before it \
             may run again (default 300).")
  in
  let slo_t =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "slo" ] ~docv:"STAGE=SEC"
          ~doc:
            "SLO latency threshold for a stage (repeatable; stages: $(b,admission), \
             $(b,queue), $(b,closure), $(b,check), $(b,stream)).  Observations over the \
             threshold count as breaches in $(b,/v1/slo).")
  in
  let slo_objective_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-objective" ] ~docv:"FRAC"
          ~doc:
            "SLO objective in (0,1), default 0.99: the burn rate in $(b,/v1/slo) is the \
             breach fraction divided by the allowed error budget (1 - $(docv)).")
  in
  let flight_size_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "flight-size" ] ~docv:"N"
          ~doc:"Flight-recorder ring slots (default 512); newest events win.")
  in
  let flight_dump_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Install a $(b,SIGQUIT) handler that dumps the flight recorder to $(docv) as \
             ndjson — a post-mortem of the last $(b,--flight-size) events with no \
             restart needed.")
  in
  let run () host port workers handlers queue_bound inflight_cap weights cache_capacity
      snapshot snapshot_every drain_deadline job_deadline wal io_timeout max_pending
      quarantine_strikes quarantine_ttl slo_thresholds slo_objective flight_size
      flight_dump shards mem_budget spill_dir dist_workers dist_connect dist_deadline =
    let sharding =
      sharding_of ~shards ~mem_budget ~spill_dir ~dist_workers ?dist_connect ~dist_deadline
        ()
    in
    let srv =
      try
        Server.start
          {
            Server.host;
            port;
            workers;
            handlers;
            queue_bound;
            inflight_cap;
            weights;
            cache_capacity;
            snapshot;
            snapshot_every_s = snapshot_every;
            job_deadline_s = job_deadline;
            wal;
            io_timeout_s = (if io_timeout <= 0. then None else Some io_timeout);
            max_pending;
            quarantine_strikes;
            quarantine_ttl_s = quarantine_ttl;
            slo_thresholds;
            slo_objective;
            flight_size;
            flight_dump;
            sharding;
          }
      with Invalid_argument msg ->
        Format.eprintf "mechaverify: %s@." msg;
        exit 3
    in
    Format.printf "mechaserve listening on %s:%d@." host (Server.port srv);
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    while not (Atomic.get stop_requested) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Format.printf "mechaserve draining...@.";
    Server.stop ?drain_deadline_s:drain_deadline srv;
    Format.printf "mechaserve stopped@.";
    exit 0
  in
  let doc =
    "Run the persistent verification daemon: campaigns over HTTP with streamed verdicts, \
     a shared warm memo cache (optionally snapshot-persisted across restarts), \
     multi-tenant fair scheduling and admission control."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ obs_t $ host_t
      $ port_t ~default:0 ~doc:"Port to listen on ($(b,0) picks an ephemeral one)."
      $ workers_t $ handlers_t $ queue_bound_t $ inflight_cap_t $ weight_t
      $ cache_capacity_t $ snapshot_t $ snapshot_every_t $ drain_deadline_t
      $ job_deadline_t $ wal_t $ io_timeout_t $ max_pending_t $ quarantine_strikes_t
      $ quarantine_ttl_t $ slo_t $ slo_objective_t $ flight_size_t $ flight_dump_t
      $ shards_t $ mem_budget_t $ spill_dir_t $ dist_workers_t $ dist_connect_t
      $ dist_deadline_t)

(* -- submit: client for a running daemon -- *)

let submit_cmd =
  let module Client = Mechaml_serve.Client in
  let module Wire = Mechaml_serve.Wire in
  let module Campaign = Mechaml_engine.Campaign in
  let module Report = Mechaml_engine.Report in
  let tenant_t =
    Arg.(
      value
      & opt string "anon"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant name for fair scheduling.")
  in
  let tiny_t =
    let doc = "Submit the four-job smoke matrix instead of the full bundled one." in
    Arg.(value & flag & info [ "tiny" ] ~doc)
  in
  let select_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "select" ] ~docv:"SUBSTR"
          ~doc:"Only submit jobs whose id contains $(docv).")
  in
  let id_t =
    Arg.(
      value
      & opt_all string []
      & info [ "id" ] ~docv:"JOB" ~doc:"Submit exactly this job id (repeatable).")
  in
  let report_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Write the JSON campaign report to $(docv).")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the CSV campaign report to $(docv).")
  in
  let canonical_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "canonical" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic canonical digest to $(docv) — byte-identical to a \
             local $(b,mechaverify campaign) over the same matrix.")
  in
  let key_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "key" ] ~docv:"KEY"
          ~doc:
            "Idempotency key: resubmitting the same $(docv) attaches to the original \
             submission and replays its verdicts instead of re-running anything.")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:"Per-job execution deadline, overriding the daemon default.")
  in
  let retry_t =
    Arg.(
      value
      & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry a failed submission up to $(docv) times with exponential backoff \
             (requires $(b,--key); after a torn stream the verdicts already computed are \
             collected from $(b,/v1/jobs) instead of re-run).")
  in
  let io_timeout_t =
    Arg.(
      value
      & opt float 30.
      & info [ "io-timeout" ] ~docv:"SEC"
          ~doc:"Socket read/write deadline per connection ($(b,0) disables).")
  in
  let request_id_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "request-id" ] ~docv:"ID"
          ~doc:
            "Trace id for the submission (1-128 chars of [A-Za-z0-9._-]; minted when \
             absent).  The daemon echoes it on the response, stamps it onto every \
             streamed event, its WAL record and its trace spans — quote it when \
             reporting a problem.")
  in
  let run () host port tenant tiny select ids report csv canonical key deadline retry
      io_timeout request_id =
    let ids = match ids with [] -> None | l -> Some l in
    let ep = { Client.host; port } in
    (* printed to stderr so it never pollutes piped report output *)
    let on_request_id rid = Format.eprintf "request id: %s@." rid in
    let on_event = function
      | Wire.Accepted { jobs } -> Format.printf "accepted %d jobs@." jobs
      | Wire.Verdict { outcome; _ } ->
        Format.printf "  %-44s %s@." outcome.Campaign.spec_id
          (Campaign.verdict_string outcome.Campaign.verdict)
      | Wire.Done { cache_entries; cache_hit_rate; _ } ->
        Format.printf "done; daemon cache: %d entries, %.0f%% hit rate@." cache_entries
          (100. *. cache_hit_rate)
    in
    let io_timeout_s = if io_timeout <= 0. then None else Some io_timeout in
    let result =
      if retry > 0 then begin
        match key with
        | None ->
          Format.eprintf "mechaverify: --retry requires --key@.";
          exit 3
        | Some key ->
          Client.submit_with_retry ep ~attempts:(retry + 1) ~tenant ~tiny ?select ?ids
            ~key ?deadline_s:deadline ?request_id ~on_request_id
            ~io_timeout_s:(Option.value io_timeout_s ~default:30.)
            ~on_event ()
      end
      else
        Client.submit ep ~tenant ~tiny ?select ?ids ?key ?deadline_s:deadline
          ?request_id ~on_request_id ?io_timeout_s ~on_event ()
    in
    match result with
    | Error e ->
      Format.eprintf "mechaverify: %s@." (Client.error_string e);
      exit 4
    | Ok outcomes ->
      print_endline (Report.table outcomes);
      Format.printf "%s@." (Report.summary outcomes);
      Option.iter
        (fun path ->
          Report.save ~path (Report.to_json outcomes);
          Format.printf "wrote %s@." path)
        report;
      Option.iter
        (fun path ->
          Report.save ~path (Report.to_csv outcomes);
          Format.printf "wrote %s@." path)
        csv;
      Option.iter
        (fun path ->
          Report.save ~path (Report.canonical outcomes);
          Format.printf "wrote %s@." path)
        canonical;
      exit 0
  in
  let doc =
    "Submit a campaign to a running $(b,mechaverify serve) daemon and stream the verdicts \
     back; the table, reports and canonical digest match a local $(b,mechaverify \
     campaign) over the same matrix."
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ obs_t $ host_t
      $ port_t ~default:8484 ~doc:"Daemon port."
      $ tenant_t $ tiny_t $ select_t $ id_t $ report_t $ csv_t $ canonical_t $ key_t
      $ deadline_t $ retry_t $ io_timeout_t $ request_id_t)

(* -- chaos-proxy: seeded fault injection between client and daemon -- *)

let chaos_proxy_cmd =
  let module Chaosproxy = Mechaml_serve.Chaosproxy in
  let target_host_t =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "target-host" ] ~docv:"ADDR" ~doc:"Daemon address to forward to.")
  in
  let target_port_t =
    Arg.(
      required
      & opt (some int) None
      & info [ "target-port" ] ~docv:"PORT" ~doc:"Daemon port to forward to.")
  in
  let seed_t =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Fault-schedule seed: the whole misbehaviour is a pure function of it, so a \
             failing run reproduces exactly.")
  in
  let faults_t =
    Arg.(
      value
      & opt string "all"
      & info [ "faults" ] ~docv:"KINDS"
          ~doc:
            "$(b,+)-separated fault kinds to inject \
             ($(b,delay)|$(b,torn)|$(b,reset)|$(b,garbage)), or $(b,all).")
  in
  let run () host port target_host target_port seed faults =
    match Chaosproxy.of_string faults with
    | Error e ->
      Format.eprintf "mechaverify: %s@." e;
      exit 3
    | Ok kinds ->
      let p = Chaosproxy.start ~host ~port ~target_host ~target_port ~seed ~kinds () in
      Format.printf "mechachaos listening on %s:%d@." host (Chaosproxy.port p);
      let stop_requested = Atomic.make false in
      let request_stop _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      while not (Atomic.get stop_requested) do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Format.printf "mechachaos stopping...@.";
      Chaosproxy.stop p;
      Format.printf "mechachaos stopped@.";
      exit 0
  in
  let doc =
    "Run a seeded fault-injection proxy in front of a $(b,mechaverify serve) daemon: \
     delays, torn writes, connection resets and response garbage, deterministically \
     derived from $(b,--seed) — the harness behind $(b,make serve-chaos)."
  in
  Cmd.v (Cmd.info "chaos-proxy" ~doc)
    Term.(
      const run $ obs_t $ host_t
      $ port_t ~default:0 ~doc:"Port to listen on ($(b,0) picks an ephemeral one)."
      $ target_host_t $ target_port_t $ seed_t $ faults_t)

(* -- probe: daemon liveness and stats -- *)

let probe_cmd =
  let module Client = Mechaml_serve.Client in
  let metrics_t =
    let doc = "Print the Prometheus /metrics scrape instead of /v1/stats." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let get_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "get" ] ~docv:"PATH"
          ~doc:
            "Fetch an arbitrary daemon path instead of /v1/stats (e.g. $(b,/v1/slo) or \
             $(b,/v1/debug/flight)) and print its body.")
  in
  let request_id_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "request-id" ] ~docv:"ID"
          ~doc:
            "Trace id to send on the probe request (minted when absent); the id the \
             daemon echoed back is printed to stderr.")
  in
  let run () host port metrics get request_id =
    match Mechaml_serve.Client.connect ~host ~port () with
    | Error e ->
      Format.eprintf "mechaverify: %s@." (Client.error_string e);
      exit 4
    | Ok ep -> (
      let path =
        match (get, metrics) with
        | Some p, _ -> p
        | None, true -> "/metrics"
        | None, false -> "/v1/stats"
      in
      match Client.get_traced ?request_id ep path with
      | Ok (status, body, echoed) ->
        Option.iter (fun rid -> Format.eprintf "request id: %s@." rid) echoed;
        print_string body;
        exit (if status = 200 then 0 else 4)
      | Error e ->
        Format.eprintf "mechaverify: %s@." (Client.error_string e);
        exit 4)
  in
  let doc =
    "Check a running daemon: liveness probe, then its stats (or metrics, or any $(b,--get) \
     path) body; the echoed trace id goes to stderr."
  in
  Cmd.v (Cmd.info "probe" ~doc)
    Term.(
      const run $ obs_t $ host_t
      $ port_t ~default:8484 ~doc:"Daemon port."
      $ metrics_t $ get_t $ request_id_t)

(* -- top: live terminal dashboard for a running daemon -- *)

let top_cmd =
  let module Client = Mechaml_serve.Client in
  let module Json = Mechaml_obs.Json in
  let fnum k j = Option.value (Option.bind (Json.member k j) Json.to_float) ~default:0. in
  let fstr k j = Option.value (Option.bind (Json.member k j) Json.to_str) ~default:"" in
  let flist k j = match Json.member k j with Some (Json.List l) -> l | _ -> [] in
  (* first sample of an unlabelled series in a Prometheus text body *)
  let prom_value body name =
    let pfx = name ^ " " in
    let n = String.length pfx in
    List.find_map
      (fun line ->
        if String.length line > n && String.sub line 0 n = pfx then
          float_of_string_opt (String.sub line n (String.length line - n))
        else None)
      (String.split_on_char '\n' body)
  in
  let render buf ep =
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    match Result.bind (Client.get ep "/v1/stats") (fun (_, stats) ->
              Result.bind (Client.get ep "/v1/slo") (fun (_, slo) ->
                  Result.map (fun m -> (stats, slo, m)) (Client.metrics ep)))
    with
    | Error e -> line "mechaserve %s:%d — %s" ep.Client.host ep.Client.port
                   (Client.error_string e)
    | Ok (stats_body, slo_body, metrics_body) -> (
      match (Json.parse (String.trim stats_body), Json.parse (String.trim slo_body)) with
      | Error e, _ | _, Error e ->
        line "mechaserve %s:%d — bad body: %s" ep.Client.host ep.Client.port e
      | Ok stats, Ok slo ->
        let mv name = Option.value (prom_value metrics_body name) ~default:0. in
        line "mechaserve %s:%d — up %.0fs   requests %.0f   campaigns %.0f   http errors %.0f"
          ep.Client.host ep.Client.port (fnum "uptime_s" stats)
          (mv "serve_requests_total") (mv "serve_campaigns_total")
          (mv "serve_http_errors_total");
        line "queue: %.0f queued, %.0f running" (fnum "queued" stats)
          (fnum "running" stats);
        line "";
        line "  %-16s %8s %9s" "TENANT" "QUEUED" "INFLIGHT";
        let tenants = flist "tenants" stats in
        if tenants = [] then line "  (no tenants yet)"
        else
          List.iter
            (fun t ->
              line "  %-16s %8.0f %9.0f" (fstr "name" t) (fnum "queued" t)
                (fnum "inflight" t))
            tenants;
        line "";
        (match Json.member "cache" stats with
        | Some c ->
          line "cache: %.0f entries, %.0f%% hit rate, %.0f evictions" (fnum "entries" c)
            (100. *. fnum "hit_rate" c) (fnum "evictions" c)
        | None -> ());
        line "";
        line "slo (objective %.2f%%)" (100. *. fnum "objective" slo);
        line "  %-16s %-10s %7s %7s %7s %9s %9s %9s" "TENANT" "STAGE" "COUNT" "BREACH"
          "BURN" "P50" "P95" "P99";
        let cells = flist "cells" slo in
        if cells = [] then line "  (no observations yet)"
        else
          List.iter
            (fun c ->
              line "  %-16s %-10s %7.0f %7.0f %7.2f %8.3fs %8.3fs %8.3fs" (fstr "tenant" c)
                (fstr "stage" c) (fnum "count" c) (fnum "breaches" c)
                (fnum "burn_rate" c) (fnum "p50_s" c) (fnum "p95_s" c) (fnum "p99_s" c))
            cells;
        line "";
        let quarantined = flist "quarantined" stats in
        if quarantined = [] then line "quarantine: none"
        else begin
          line "quarantine:";
          List.iter
            (fun q -> line "  %s (%s)" (fstr "digest" q) (fstr "reason" q))
            quarantined
        end)
  in
  let with_raw_stdin f =
    if Unix.isatty Unix.stdin then begin
      let saved = Unix.tcgetattr Unix.stdin in
      let raw = { saved with Unix.c_icanon = false; c_echo = false; c_vmin = 0; c_vtime = 0 } in
      Unix.tcsetattr Unix.stdin Unix.TCSANOW raw;
      Fun.protect ~finally:(fun () -> Unix.tcsetattr Unix.stdin Unix.TCSANOW saved) f
    end
    else f ()
  in
  (* block until the next frame is due; [`Quit] on q, early [`Tick] on space *)
  let wait_key interval =
    if Unix.isatty Unix.stdin then begin
      let deadline = Unix.gettimeofday () +. interval in
      let rec poll () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then `Tick
        else
          match Unix.select [ Unix.stdin ] [] [] left with
          | [], _, _ -> `Tick
          | _ -> (
            let b = Bytes.create 1 in
            match Unix.read Unix.stdin b 0 1 with
            | 0 -> `Tick
            | _ -> (
              match Bytes.get b 0 with
              | 'q' | 'Q' -> `Quit
              | ' ' -> `Tick
              | _ -> poll ()))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      in
      poll ()
    end
    else begin
      Unix.sleepf interval;
      `Tick
    end
  in
  let interval_t =
    Arg.(
      value
      & opt float 1.
      & info [ "interval" ] ~docv:"SEC" ~doc:"Seconds between refreshes (default 1).")
  in
  let frames_t =
    Arg.(
      value
      & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:
            "Render $(docv) frames and exit ($(b,0), the default, runs until $(b,q) or \
             interrupt) — what the smoke tests use on a non-TTY.")
  in
  let run () host port interval frames =
    match Client.connect ~host ~port () with
    | Error e ->
      Format.eprintf "mechaverify: %s@." (Client.error_string e);
      exit 4
    | Ok ep ->
      let tty = Unix.isatty Unix.stdout in
      with_raw_stdin (fun () ->
          let rec loop n =
            let buf = Buffer.create 2048 in
            (* clear-and-home on a TTY, plain appended frames otherwise *)
            if tty then Buffer.add_string buf "\x1b[2J\x1b[H";
            render buf ep;
            if tty then Buffer.add_string buf "\n[q] quit   [space] refresh now\n";
            print_string (Buffer.contents buf);
            flush stdout;
            if frames > 0 && n >= frames then ()
            else match wait_key interval with `Quit -> () | `Tick -> loop (n + 1)
          in
          loop 1);
      exit 0
  in
  let doc =
    "Live terminal dashboard for a running daemon: tenant queues, in-flight jobs, cache \
     hit rate, per-stage SLO burn and quarantine, refreshed from $(b,/v1/stats), \
     $(b,/v1/slo) and $(b,/metrics).  Keys: $(b,q) quits, $(b,space) refreshes now."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ obs_t $ host_t
      $ port_t ~default:8484 ~doc:"Daemon port."
      $ interval_t $ frames_t)

(* -- shard-worker: one process of the distributed exploration fleet -------- *)

let shard_worker_cmd =
  let addr_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:"Address to listen on: $(b,host:port) or a Unix socket path.")
  in
  let ppid_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "ppid" ] ~docv:"PID"
          ~doc:
            "Coordinator process id.  The worker exits when that process disappears, so \
             a crashed coordinator never leaks its fleet.")
  in
  let run () addr ppid =
    let a = Mechaml_wire.Shardwire.addr_of_string addr in
    let fd =
      try Mechaml_wire.Shardwire.listen a
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "mechaverify: cannot listen on %s: %s@." addr (Unix.error_message e);
        exit 4
    in
    let w = Mechaml_dist.Distworker.create ?ppid fd in
    Mechaml_dist.Distworker.serve w;
    (match a with
    | Mechaml_wire.Shardwire.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Mechaml_wire.Shardwire.Tcp _ -> ());
    exit 0
  in
  let doc =
    "Run one worker process of the distributed sharded exploration.  Started \
     automatically by $(b,--dist-workers); start by hand (one per host) and point \
     $(b,--dist-connect) at the addresses to spread a product across machines.  Owns a \
     subset of shards: expands frontiers, spills cold segments under its own \
     $(b,--mem-budget) share, answers fixpoint boundary exchanges.  Exits on the \
     coordinator's $(b,shutdown), or when $(b,--ppid) dies."
  in
  Cmd.v (Cmd.info "shard-worker" ~doc) Term.(const run $ obs_t $ addr_t $ ppid_t)

let main_cmd =
  let doc =
    "combined formal verification and testing for correct legacy component integration"
  in
  Cmd.group (Cmd.info "mechaverify" ~version:"1.0.0" ~doc)
    [
      railcab_cmd; protocol_cmd; lock_cmd; run_cmd; learn_cmd; pattern_cmd; campaign_cmd;
      export_cmd; serve_cmd; submit_cmd; probe_cmd; top_cmd; chaos_proxy_cmd;
      shard_worker_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
