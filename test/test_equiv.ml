(* Kernel-equivalence suite: the state-space engine rewrite (packed automata,
   bucketed products, bitset fixpoints) and the incremental re-verification
   engine (delta closures, product patching, warm-started fixpoints) must be
   pure speedups.  These tests pin the observable behaviour of the whole
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
     scenarios through [Loop.run] in both modes. *)

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
    test "incremental-debug re-checks every warm stage cold and agrees" (fun () ->
        (* every seeded fixpoint, delta closure and reused product is
           recomputed from scratch and compared bit for bit; a divergence
           raises inside the job instead of changing a verdict *)
        check_string "incremental debug, jobs:1" (read_file golden_file)
          (Report.canonical
             (Campaign.run ~jobs:1 ~incremental_debug:true (Campaign.bundled ()))));
  ]

(* Structural automaton identity — the incremental contract is not just
   language equivalence but byte-identical construction (state numbering,
   adjacency order, labels), which is what keeps witnesses and verdicts
   independent of the mode. *)
let same_auto (a : Automaton.t) (b : Automaton.t) =
  a.Automaton.name = b.Automaton.name
  && a.Automaton.state_names = b.Automaton.state_names
  && Array.for_all2 Mechaml_util.Bitset.equal a.Automaton.labels b.Automaton.labels
  && a.Automaton.trans = b.Automaton.trans
  && a.Automaton.initial = b.Automaton.initial
  && Universe.to_list a.Automaton.props = Universe.to_list b.Automaton.props

(* A random learning sequence: grow an incomplete automaton fact by fact the
   way the loop does (append-only transitions and refusals), skipping facts
   that would contradict recorded knowledge. *)
let chaos_update_chain_prop seed =
  let rng = Prng.create ~seed in
  let pool = [| "s0"; "s1"; "s2"; "s3"; "s4" |] in
  let subset l = List.filter (fun _ -> Prng.bool rng) l in
  let label_of s = if s = "s1" then [ "odd" ] else [] in
  let extra_props = [ "odd" ] in
  let m =
    ref
      (Incomplete.create ~name:"q" ~inputs:[ "a"; "b" ] ~outputs:[ "x" ]
         ~initial_state:"s0")
  in
  let inc = Chaos.inc_closure ~label_of ~extra_props !m in
  for _ = 1 to 12 do
    (try
       let src = pool.(Prng.int rng (Array.length pool)) in
       let inputs = subset [ "a"; "b" ] in
       if Prng.bool rng then
         let dst = pool.(Prng.int rng (Array.length pool)) in
         let outputs = subset [ "x" ] in
         m := Incomplete.add_transition !m ~src (Incomplete.interaction ~inputs ~outputs) ~dst
       else m := Incomplete.add_refusal !m ~state:src ~inputs
     with Invalid_argument _ -> (* contradicts recorded knowledge: skip *) ());
    Chaos.update inc !m;
    if not (same_auto (Chaos.auto inc) (Chaos.closure ~label_of ~extra_props !m)) then
      QCheck.Test.fail_reportf "patched closure diverged from fresh closure (seed %d)" seed
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
  (* threshold 0 forces the caches on from the first iteration — the random
     scenarios are small, and the size gate must not quietly turn the
     machinery under test back into the scratch path *)
  let go incremental =
    Loop.run ~label_of:(fun _ -> []) ~context ~property:Ctl.deadlock_free
      ~legacy:(Blackbox.of_automaton ~port:"p" legacy) ~incremental
      ~incremental_threshold:0 ()
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
      ("incremental-neutrality", neutrality_tests);
      ("incremental-properties", property_tests);
      ("sharding-neutrality", sharding_tests @ sharding_property_tests);
      ("distribution-neutrality", distribution_tests);
      ("daemon-neutrality", daemon_tests);
    ]
