(* Kernel-equivalence suite: the state-space engine rewrite (packed automata,
   the CSR join kernel, bitset fixpoints) and the incremental re-verification
   engine (delta closures) must be pure speedups.  These tests pin the observable behaviour of the whole
   pipeline to the seed engine:

   - the canonical report of the bundled campaign matrix is byte-identical to
     the committed golden file [campaign_seed.canonical] (regenerate it with
     [dune exec test/dump_canonical.exe] only after an *intentional* matrix
     or format change);
   - worker count does not leak into results: jobs:1 and jobs:4 agree on the
     per-job Loop verdicts and on the whole canonical report;
   - incremental mode does not leak into results either: incremental on/off
     × jobs 1/4 all produce the same canonical report, and qcheck properties
     drive random learning sequences through [Chaos.update] and whole random
     scenarios through [Loop.run] in both modes;
   - incremental mode changes how closures are built, never the fixpoint
     work: a job pops the same worklist states and sweeps as often in both
     modes. *)

module Campaign = Mechaml_engine.Campaign
module Report = Mechaml_engine.Report
module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Chaos = Mechaml_core.Chaos
module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Families = Mechaml_scenarios.Families
module Blackbox = Mechaml_legacy.Blackbox
module Ctl = Mechaml_logic.Ctl
module Prng = Mechaml_util.Prng
module Shard = Mechaml_ts.Shard
module Segment = Mechaml_util.Segment
module Metrics = Mechaml_obs.Metrics
open Helpers

(* [dune runtest] runs in [_build/default/test] next to the (dep-declared)
   golden file; [dune exec test/test_equiv.exe] runs from the project root. *)
let golden_file =
  if Sys.file_exists "campaign_seed.canonical" then "campaign_seed.canonical"
  else "test/campaign_seed.canonical"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One campaign execution per (worker count × incremental mode), shared by
   all assertions. *)
let sequential = lazy (Campaign.run ~jobs:1 (Campaign.bundled ()))

let parallel = lazy (Campaign.run ~jobs:4 (Campaign.bundled ()))

let scratch_sequential =
  lazy (Campaign.run ~jobs:1 ~incremental:false (Campaign.bundled ()))

let scratch_parallel =
  lazy (Campaign.run ~jobs:4 ~incremental:false (Campaign.bundled ()))

let verdict_lines outcomes =
  List.map
    (fun (o : Campaign.outcome) ->
      Printf.sprintf "%s %s" o.spec_id (Campaign.verdict_string o.verdict))
    outcomes

let unit_tests =
  [
    test "bundled matrix matches the seed golden report byte for byte" (fun () ->
        check_string "canonical vs committed golden" (read_file golden_file)
          (Report.canonical (Lazy.force sequential)));
    test "jobs:4 reproduces the sequential Loop verdicts job by job" (fun () ->
        Alcotest.(check (list string))
          "verdicts jobs:1 = jobs:4"
          (verdict_lines (Lazy.force sequential))
          (verdict_lines (Lazy.force parallel)));
    test "jobs:4 reproduces the sequential canonical report" (fun () ->
        check_string "canonical jobs:1 = jobs:4"
          (Report.canonical (Lazy.force sequential))
          (Report.canonical (Lazy.force parallel)));
    test "tiny matrix is deterministic across repeated runs" (fun () ->
        let a = Report.canonical (Campaign.run ~jobs:2 (Campaign.bundled ~tiny:true ())) in
        let b = Report.canonical (Campaign.run ~jobs:2 (Campaign.bundled ~tiny:true ())) in
        check_string "run-to-run" a b);
  ]

(* -- incremental ≡ from-scratch ------------------------------------------- *)

let neutrality_tests =
  [
    test "incremental off reproduces the Loop verdicts job by job" (fun () ->
        Alcotest.(check (list string))
          "verdicts incremental on = off"
          (verdict_lines (Lazy.force sequential))
          (verdict_lines (Lazy.force scratch_sequential)));
    test "incremental on/off x jobs 1/4 agree on the canonical report" (fun () ->
        let reference = Report.canonical (Lazy.force sequential) in
        check_string "incremental off, jobs:1" reference
          (Report.canonical (Lazy.force scratch_sequential));
        check_string "incremental off, jobs:4" reference
          (Report.canonical (Lazy.force scratch_parallel)));
    test "incremental-debug re-checks every delta closure fresh and agrees" (fun () ->
        (* every delta closure is rebuilt from scratch and compared
           structurally; a divergence raises inside the job instead of
           changing a verdict *)
        check_string "incremental debug, jobs:1" (read_file golden_file)
          (Report.canonical
             (Campaign.run ~jobs:1 ~incremental_debug:true (Campaign.bundled ()))));
  ]

(* Random learning chains ([Helpers.grow_model]) against structural
   automaton identity ([Automaton.equal]) — the incremental contract is not
   just language equivalence but byte-identical construction (state
   numbering, adjacency order, escapes, labels), which is what keeps
   witnesses and verdicts independent of the mode. *)
let label_of s = if s = "s1" then [ "odd" ] else []

let extra_props = [ "odd" ]

let chaos_update_chain_prop seed =
  let rng = Prng.create ~seed in
  let m = ref (model_start ()) in
  let inc = Chaos.inc_closure ~label_of ~extra_props !m in
  for _ = 1 to 12 do
    m := grow_model rng !m;
    Chaos.update ~debug:true inc !m;
    if not (Automaton.equal (Chaos.auto inc) (Chaos.closure ~label_of ~extra_props !m)) then
      QCheck.Test.fail_reportf "updated closure diverged from fresh closure (seed %d)" seed
  done;
  true

(* Escape rows written out are the enumerating construction's rows: for the
   fresh closure of every model along a chain and for the handle updated
   along it. *)
let materialize_reference_prop seed =
  let rng = Prng.create ~seed in
  let m = ref (model_start ()) in
  let inc = Chaos.inc_closure ~label_of ~extra_props !m in
  for step = 0 to 12 do
    if step > 0 then begin
      m := grow_model rng !m;
      Chaos.update inc !m
    end;
    let reference = reference_closure ~label_of ~extra_props !m in
    if not (Automaton.equal (Chaos.materialize (Chaos.closure ~label_of ~extra_props !m)) reference)
    then
      QCheck.Test.fail_reportf "fresh closure differs from the reference (seed %d, step %d)" seed
        step;
    if not (Automaton.equal (Chaos.materialize (Chaos.auto inc)) reference) then
      QCheck.Test.fail_reportf "updated closure differs from the reference (seed %d, step %d)" seed
        step;
    if Automaton.num_transitions (Chaos.auto inc) <> Automaton.num_transitions reference then
      QCheck.Test.fail_reportf "counted transitions differ from the reference (seed %d, step %d)"
        seed step
  done;
  true

(* A memo replay along the same kind of chain: a second handle either
   adopts the automaton the first one's [update] produced or is updated
   itself — checked against a fresh closure by [~debug] and against the
   first handle's closure, so an index that adopt left stale shows in the
   next update. *)
let chaos_adopt_chain_prop seed =
  let rng = Prng.create ~seed in
  let m = ref (model_start ()) in
  let inc = Chaos.inc_closure ~label_of ~extra_props !m in
  let replayed = ref (Chaos.adopt ~label_of ~extra_props ~prev:None !m (Chaos.auto inc)) in
  for step = 1 to 12 do
    m := grow_model rng !m;
    Chaos.update ~debug:true inc !m;
    if Prng.bool rng then replayed := Chaos.adopt ~prev:(Some !replayed) !m (Chaos.auto inc)
    else begin
      Chaos.update ~debug:true !replayed !m;
      if not (Automaton.equal (Chaos.auto !replayed) (Chaos.auto inc)) then
        QCheck.Test.fail_reportf "update after adopt diverged (seed %d, step %d)" seed step
    end
  done;
  true

(* Whole-loop equivalence on random scenarios: verdict and the per-iteration
   record trail (sizes, counterexample path) must not depend on the mode. *)
let iteration_signature (it : Loop.iteration) =
  Printf.sprintf "%d:%d:%d:%d:%d:%b:%d" it.Loop.index it.Loop.model_states
    it.Loop.model_knowledge it.Loop.closure_states it.Loop.product_states it.Loop.fast_real
    it.Loop.probes

let verdict_tag = function
  | Loop.Proved -> "proved"
  | Loop.Real_violation { kind = Loop.Deadlock; _ } -> "deadlock"
  | Loop.Real_violation { kind = Loop.Property; _ } -> "property"
  | Loop.Exhausted _ -> "exhausted"
  | Loop.Degraded _ -> "degraded"

let loop_equivalence_prop seed =
  let inputs = [ "i0"; "i1"; "i2" ] and outputs = [ "o0"; "o1" ] in
  let legacy =
    Families.random_machine ~seed ~states:(4 + (seed mod 5)) ~inputs ~outputs
  in
  let context =
    Families.random_context ~seed ~states:(6 + (seed mod 7)) ~legacy_inputs:inputs
      ~legacy_outputs:outputs
  in
  let go incremental =
    Loop.run ~label_of:(fun _ -> []) ~context ~property:Ctl.deadlock_free
      ~legacy:(Blackbox.of_automaton ~port:"p" legacy) ~incremental ()
  in
  let on_ = go true and off = go false in
  let trail r = List.map iteration_signature r.Loop.iterations in
  if verdict_tag on_.Loop.verdict <> verdict_tag off.Loop.verdict then
    QCheck.Test.fail_reportf "verdict differs (seed %d): %s vs %s" seed
      (verdict_tag on_.Loop.verdict) (verdict_tag off.Loop.verdict);
  if trail on_ <> trail off then
    QCheck.Test.fail_reportf "iteration records differ (seed %d)" seed;
  true

let property_tests =
  [
    qcheck ~count:40 "Chaos.update chain is structurally a fresh closure"
      QCheck.small_nat chaos_update_chain_prop;
    qcheck ~count:40 "Chaos.adopt around a replayed update keeps later updates exact"
      QCheck.small_nat chaos_adopt_chain_prop;
    qcheck ~count:40 "materialized closures, fresh and updated, equal the enumerating reference"
      QCheck.small_nat materialize_reference_prop;
    qcheck ~count:15 "incremental Loop.run matches scratch Loop.run"
      QCheck.small_nat loop_equivalence_prop;
  ]

(* -- sharding neutrality ----------------------------------------------------

   The sharded, out-of-core check pipeline (--shards/--mem-budget) is the
   third thing that must be a pure speedup: partitioned exploration,
   per-shard fixpoints and disk-spilled segments must reproduce the default
   pipeline's canonical reports and per-iteration trails byte for byte —
   for every shard count, worker count, and with spilling engaged. *)

let sharded_loop_equivalence_prop shards seed =
  let inputs = [ "i0"; "i1"; "i2" ] and outputs = [ "o0"; "o1" ] in
  let legacy =
    Families.random_machine ~seed ~states:(4 + (seed mod 5)) ~inputs ~outputs
  in
  let context =
    Families.random_context ~seed ~states:(6 + (seed mod 7)) ~legacy_inputs:inputs
      ~legacy_outputs:outputs
  in
  let go sharding =
    Loop.run ~label_of:(fun _ -> []) ~context ~property:Ctl.deadlock_free
      ~legacy:(Blackbox.of_automaton ~port:"p" legacy) ?sharding ()
  in
  let plain = go None
  and sharded = go (Some (Shard.config ~shards ~mem_budget:2048 ())) in
  let trail r = List.map iteration_signature r.Loop.iterations in
  if verdict_tag plain.Loop.verdict <> verdict_tag sharded.Loop.verdict then
    QCheck.Test.fail_reportf "sharded verdict differs (seed %d, %d shards): %s vs %s"
      seed shards
      (verdict_tag plain.Loop.verdict)
      (verdict_tag sharded.Loop.verdict);
  if trail plain <> trail sharded then
    QCheck.Test.fail_reportf "sharded iteration records differ (seed %d, %d shards)" seed
      shards;
  true

let lock_spec () =
  List.find
    (fun (s : Campaign.spec) -> s.Campaign.id = "lock/n96-d48/locked/bfs")
    (Campaign.bundled ())

(* [on_closure] may hand back an equal copy of what [compute] built, or
   call [compute] more than once: neither may change the run.
   [incremental_debug] builds every closure fresh as well, so a stale
   delta closure raises. *)
let closure_hook_test =
  test "a closure hook that copies or recomputes keeps the run unchanged" (fun () ->
      let spec = lock_spec () in
      let go on_closure =
        let r =
          Loop.run ~strategy:spec.strategy ~label_of:spec.label_of ~incremental_debug:true
            ~on_closure ~context:spec.context ~property:spec.property
            ~legacy:(spec.make_box ()) ()
        in
        (verdict_tag r.Loop.verdict, List.map iteration_signature r.Loop.iterations)
      in
      let reference = go (fun ~model:_ ~compute -> compute ()) in
      List.iter
        (fun (what, on_closure) ->
          if go on_closure <> reference then Alcotest.failf "%s: run differs" what)
        [
          ( "an equal copy",
            fun ~model:_ ~compute ->
              let a = compute () in
              Automaton.rename a a.Automaton.name );
          ( "compute called twice",
            fun ~model:_ ~compute ->
              ignore (compute ());
              compute () );
        ])

(* Incremental mode changes how closures are built, never the fixpoint
   work: every check computes its fixpoints cold, so a multi-iteration job
   pops the same worklist states and sweeps as often either way. *)
let fixpoint_work_test =
  test "incremental on and off do the same fixpoint work" (fun () ->
      let spec = lock_spec () in
      let pops = Metrics.counter "mc_worklist_pops_total" ~help:""
      and sweeps = Metrics.counter "mc_fixpoint_sweeps_total" ~help:"" in
      let was_enabled = Metrics.enabled () in
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
      let work incremental =
        let p0 = Metrics.counter_value pops and s0 = Metrics.counter_value sweeps in
        let r =
          Loop.run ~strategy:spec.strategy ~label_of:spec.label_of ~incremental
            ~context:spec.context ~property:spec.property ~legacy:(spec.make_box ()) ()
        in
        check_bool "several checks" true (List.length r.Loop.iterations > 1);
        (Metrics.counter_value pops - p0, Metrics.counter_value sweeps - s0)
      in
      let pops_on, sweeps_on = work true and pops_off, sweeps_off = work false in
      check_bool "pops counted" true (pops_on > 0);
      check_int "worklist pops, incremental on = off" pops_off pops_on;
      check_int "fixpoint sweeps, incremental on = off" sweeps_off sweeps_on)

let shard_layout_test =
  test "a loop run gives one verdict and trail at shards 1/3/8, spilling included" (fun () ->
      let spec = lock_spec () in
      let go sharding =
        let r =
          Loop.run ~strategy:spec.strategy ~label_of:spec.label_of ~incremental_debug:true
            ~sharding ~context:spec.context ~property:spec.property
            ~legacy:(spec.make_box ()) ()
        in
        (verdict_tag r.Loop.verdict, List.map iteration_signature r.Loop.iterations)
      in
      let verdict0, trail0 = go (Shard.config ()) in
      List.iter
        (fun (what, sharding) ->
          let verdict, trail = go sharding in
          check_string (what ^ ": verdict") verdict0 verdict;
          Alcotest.(check (list string)) (what ^ ": trail") trail0 trail)
        [
          ("3 shards", Shard.config ~shards:3 ());
          ("8 shards, spilling", Shard.config ~shards:8 ~mem_budget:1024 ());
        ])

(* A product is released when its iteration ends, so an incremental run
   under a budget never holds the segments of two products: what is
   resident across every open manager stays within one budget. *)
let one_budget_test =
  test "an incremental 8-shard run stays within one memory budget" (fun () ->
      let spec = lock_spec () in
      let budget = 8 * 1024 in
      let base = Segment.total_resident () and spills = Segment.total_spills () in
      Segment.reset_peak ();
      let r =
        Loop.run ~strategy:spec.strategy ~label_of:spec.label_of
          ~sharding:(Shard.config ~shards:8 ~mem_budget:budget ())
          ~context:spec.context ~property:spec.property ~legacy:(spec.make_box ()) ()
      in
      check_bool "several checks" true (List.length r.Loop.iterations > 1);
      check_bool "spills engaged" true (Segment.total_spills () > spills);
      check_bool
        (Printf.sprintf "peak %d bytes above the %d at the start, budget %d"
           (Segment.peak_resident () - base) base budget)
        true
        (Segment.peak_resident () - base <= budget);
      check_int "nothing left resident" base (Segment.total_resident ()))

let sharding_tests =
  [
    test "sharded full matrix reproduces the canonical report (shards 2, jobs 4)"
      (fun () ->
        check_string "sharded canonical = reference"
          (Report.canonical (Lazy.force sequential))
          (Report.canonical
             (Campaign.run ~jobs:4
                ~sharding:(Shard.config ~shards:2 ())
                (Campaign.bundled ()))));
    shard_layout_test;
    one_budget_test;
    test "shards 1/2/8 x jobs 1/4, spilling on and off, agree on the tiny matrix"
      (fun () ->
        let reference =
          Report.canonical (Campaign.run ~jobs:1 (Campaign.bundled ~tiny:true ()))
        in
        List.iter
          (fun (shards, jobs, mem_budget) ->
            let sharding = Shard.config ~shards ?mem_budget () in
            check_string
              (Printf.sprintf "shards:%d jobs:%d budget:%s" shards jobs
                 (match mem_budget with None -> "-" | Some b -> string_of_int b))
              reference
              (Report.canonical
                 (Campaign.run ~jobs ~sharding (Campaign.bundled ~tiny:true ()))))
          [
            (1, 1, None);
            (2, 1, None);
            (2, 4, None);
            (8, 1, Some 1024);
            (8, 4, None);
            (1, 4, Some 1024);
          ]);
    test "a cache warmed materialized answers the sharded run's checks" (fun () ->
        (* check keys name the product by its operands, not by the tier
           that builds it, so a materialized run's entries serve a sharded
           rerun of the same matrix — every check a hit, same bytes *)
        let module Cache = Mechaml_engine.Cache in
        let cache = Cache.create () in
        let reference =
          Report.canonical (Campaign.run ~jobs:1 ~cache (Campaign.bundled ~tiny:true ()))
        in
        let before = Cache.stats cache in
        let sharded =
          Campaign.run ~jobs:1 ~cache
            ~sharding:(Shard.config ~shards:2 ())
            (Campaign.bundled ~tiny:true ())
        in
        let after = Cache.stats cache in
        check_string "sharded canonical = materialized" reference (Report.canonical sharded);
        check_bool "check hits" true (after.Cache.check_hits > before.Cache.check_hits);
        check_int "no check recomputed" before.Cache.check_misses after.Cache.check_misses);
    test "a budgeted campaign actually spills" (fun () ->
        let before = Segment.total_spills () in
        ignore
          (Campaign.run ~jobs:1
             ~sharding:(Shard.config ~shards:4 ~mem_budget:1024 ())
             (Campaign.bundled ~tiny:true ()));
        check_bool "spills engaged" true (Segment.total_spills () > before));
  ]

let sharding_property_tests =
  [
    qcheck ~count:10 "sharded Loop.run matches the default pipeline (2 shards)"
      QCheck.small_nat
      (sharded_loop_equivalence_prop 2);
    qcheck ~count:10 "sharded Loop.run matches the default pipeline (8 shards)"
      QCheck.small_nat
      (sharded_loop_equivalence_prop 8);
  ]

(* -- daemon neutrality ------------------------------------------------------

   Serving a campaign through the mechaserve daemon (wire codec, scheduler,
   shared warm cache, streamed verdicts) is yet another thing that must not
   leak into results: the outcomes a client reassembles from the chunked
   event stream must produce the same canonical report as a local
   [Campaign.run] over the same matrix — whatever the worker count, and with
   two clients sharing one daemon (and its cache) concurrently. *)

module Server = Mechaml_serve.Server
module Client = Mechaml_serve.Client

let with_daemon ~workers f =
  let srv = Server.start { Server.default with Server.workers } in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f { Client.host = "127.0.0.1"; port = Server.port srv })

let submit_exn ?tenant ep =
  match Client.submit ep ?tenant () with
  | Ok outcomes -> outcomes
  | Error e -> Alcotest.fail (Client.error_string e)

(* -- distribution neutrality ------------------------------------------------

   The cross-process tier (--dist-workers/--dist-connect) is the fourth thing
   that must be a pure speedup: shipping shard segments to a worker-process
   fleet over the wire — including losing a worker mid-campaign — must
   reproduce the canonical reports byte for byte for every worker count. *)

module Distworker = Mechaml_dist.Distworker
module Dwire = Mechaml_wire.Shardwire

let dist_sock =
  let c = ref 0 in
  fun () ->
    incr c;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mechaequiv-%d-%d.sock" (Unix.getpid ()) !c)

let with_dist_fleet n f =
  let handles = List.init n (fun _ -> Distworker.start (Dwire.Unix_sock (dist_sock ()))) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun h -> try Distworker.stop h with _ -> ()) handles)
    (fun () ->
      f handles
        (List.map (fun h -> Dwire.addr_to_string (Distworker.addr h)) handles))

let dist_canonical ~workers ~shards =
  with_dist_fleet workers (fun _ addrs ->
      Report.canonical
        (Campaign.run ~jobs:1
           ~sharding:
             (Shard.config ~shards
                ~distribution:(Shard.distribution ~deadline_s:60. (Shard.Connect addrs))
                ())
           (Campaign.bundled ~tiny:true ())))

let distribution_tests =
  [
    test "dist-workers 1/2/4 x shards 2/8 reproduce the tiny canonical report" (fun () ->
        let reference =
          Report.canonical (Campaign.run ~jobs:1 (Campaign.bundled ~tiny:true ()))
        in
        List.iter
          (fun (workers, shards) ->
            check_string
              (Printf.sprintf "dist-workers:%d shards:%d" workers shards)
              reference
              (dist_canonical ~workers ~shards))
          [ (1, 2); (2, 2); (4, 2); (1, 8); (2, 8); (4, 8) ]);
    test "a worker killed mid-campaign still reproduces the canonical report" (fun () ->
        let reference =
          Report.canonical (Campaign.run ~jobs:1 (Campaign.bundled ~tiny:true ()))
        in
        with_dist_fleet 2 (fun handles addrs ->
            (* stop one worker while the campaign is in flight; whichever
               phase the loss lands in, recovery must keep the output
               byte-identical *)
            let killer =
              Domain.spawn (fun () ->
                  Unix.sleepf 0.02;
                  try Distworker.stop (List.hd handles) with _ -> ())
            in
            let got =
              Report.canonical
                (Campaign.run ~jobs:1
                   ~sharding:
                     (Shard.config ~shards:4
                        ~distribution:
                          (Shard.distribution ~deadline_s:60. (Shard.Connect addrs))
                        ())
                   (Campaign.bundled ~tiny:true ()))
            in
            Domain.join killer;
            check_string "kill-one-worker canonical = reference" reference got));
  ]

let daemon_tests =
  [
    test "daemon-served full matrix matches the local canonical report (workers 1 and 4)"
      (fun () ->
        let reference = Report.canonical (Lazy.force sequential) in
        with_daemon ~workers:1 (fun ep ->
            check_string "daemon workers:1" reference (Report.canonical (submit_exn ep)));
        with_daemon ~workers:4 (fun ep ->
            check_string "daemon workers:4" reference (Report.canonical (submit_exn ep))));
    test "two concurrent clients of one daemon both match the local report" (fun () ->
        let reference = Report.canonical (Lazy.force sequential) in
        with_daemon ~workers:4 (fun ep ->
            let d1 = Domain.spawn (fun () -> submit_exn ~tenant:"alice" ep) in
            let d2 = Domain.spawn (fun () -> submit_exn ~tenant:"bob" ep) in
            let a = Domain.join d1 and b = Domain.join d2 in
            check_string "client 1" reference (Report.canonical a);
            check_string "client 2" reference (Report.canonical b)));
    test "tracing and the flight recorder never change a daemon verdict" (fun () ->
        let module Trace = Mechaml_obs.Trace in
        let module Flight = Mechaml_obs.Flight in
        let reference = Report.canonical (Lazy.force sequential) in
        Fun.protect
          ~finally:(fun () ->
            Trace.disable ();
            Trace.reset ();
            Flight.disable ();
            Flight.configure ~size:Flight.default_size)
          (fun () ->
            with_daemon ~workers:4 (fun ep ->
                (* first pass fully instrumented: spans on every stage, the
                   recorder catching every admission and verdict *)
                Trace.enable ();
                Flight.configure ~size:256;
                let traced = Report.canonical (submit_exn ~tenant:"traced" ep) in
                Trace.disable ();
                Trace.reset ();
                Flight.disable ();
                (* second pass silenced, against the same warm cache: both the
                   instrumented and the silent path must be byte-identical to
                   the local reference *)
                let silent = Report.canonical (submit_exn ~tenant:"silent" ep) in
                check_string "instrumented = reference" reference traced;
                check_string "silenced = reference" reference silent)));
  ]

let () =
  Alcotest.run "equiv"
    [
      ("unit", unit_tests);
      ("incremental-neutrality", neutrality_tests @ [ closure_hook_test; fixpoint_work_test ]);
      ("incremental-properties", property_tests);
      ("sharding-neutrality", sharding_tests @ sharding_property_tests);
      ("distribution-neutrality", distribution_tests);
      ("daemon-neutrality", daemon_tests);
    ]
