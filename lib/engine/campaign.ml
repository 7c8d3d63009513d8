module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Ctl = Mechaml_logic.Ctl
module Witness = Mechaml_mc.Witness
module Blackbox = Mechaml_legacy.Blackbox
module Flaky = Mechaml_legacy.Flaky
module Faults = Mechaml_legacy.Faults
module Supervisor = Mechaml_legacy.Supervisor
module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Trace = Mechaml_obs.Trace

type spec = {
  id : string;
  family : string;
  context : Automaton.t;
  property : Ctl.t;
  strategy : Witness.strategy;
  make_box : unit -> Blackbox.t;
  label_of : string -> string list;
  timeout : float option;
  retries : int;
  max_iterations : int option;
  inject : string option;
  seed : int;
  policy : Supervisor.policy option;
}

let job ~id ~family ~context ~property ?(strategy = Witness.Bfs_shortest)
    ?(label_of = fun _ -> []) ?timeout ?(retries = 0) ?max_iterations ?inject ?(seed = 0)
    ?policy make_box =
  { id; family; context; property; strategy; make_box; label_of; timeout; retries;
    max_iterations; inject; seed; policy }

type verdict =
  | Proved
  | Real_deadlock of { confirmed_by_test : bool }
  | Real_property of { confirmed_by_test : bool }
  | Exhausted
  | Degraded of { reason : string }
  | Timed_out
  | Failed of string

type cache_counters = {
  closure_hits : int;
  closure_misses : int;
  check_hits : int;
  check_misses : int;
}

type outcome = {
  spec_id : string;
  family : string;
  verdict : verdict;
  iterations : int;
  states_learned : int;
  knowledge : int;
  tests_executed : int;
  test_steps : int;
  attempts : int;
  duration_s : float;
  closure_seconds : float;
  check_seconds : float;
  test_seconds : float;
  max_closure_states : int;
  max_product_states : int;
  closure_delta_edges : int;
  product_states_reused : int;
  cache : cache_counters;
  fault : string option;
  supervision : Supervisor.stats option;
}

let verdict_string = function
  | Proved -> "proved"
  | Real_deadlock { confirmed_by_test = true } -> "real deadlock (tested)"
  | Real_deadlock _ -> "real deadlock (fast)"
  | Real_property { confirmed_by_test = true } -> "real violation (tested)"
  | Real_property _ -> "real violation (fast)"
  | Exhausted -> "exhausted"
  | Degraded _ -> "degraded"
  | Timed_out -> "timed out"
  | Failed _ -> "failed"

let strategy_string = function
  | Witness.Bfs_shortest -> "bfs"
  | Witness.Dfs_first -> "dfs"

exception Out_of_time
(* Internal: unwinds Loop.run from inside a hook when the deadline passed.
   The loop holds no resources, so unwinding is safe at any stage. *)

let run_spec_unobserved ?cache ?(incremental = true) ?(incremental_debug = false) ?sharding
    (spec : spec) : outcome =
  let start = Unix.gettimeofday () in
  let deadline = Option.map (fun budget -> start +. budget) spec.timeout in
  let closure_hits = ref 0 and closure_misses = ref 0 in
  let check_hits = ref 0 and check_misses = ref 0 in
  let guard_deadline () =
    match deadline with
    | Some d when Unix.gettimeofday () >= d -> raise Out_of_time
    | _ -> ()
  in
  (* The closure of a learned model also depends on the labelling (identified
     by the family name) and on the property's legacy-side propositions that
     the loop seeds into the closure universe — mirror Loop.run's derivation
     so structurally identical closures, and only those, share a key. *)
  let legacy_props =
    List.filter
      (fun p -> not (Universe.mem spec.context.Automaton.props p))
      (Ctl.props spec.property)
  in
  (* A check's input is the operand pair [(context, closure)], and the
     closure is named by the key [on_closure] computed in the same
     iteration — so the check key carries the context digest and that
     closure key instead of digesting either automaton.  Verdicts are
     byte-identical for every shard layout and fleet, so they share
     entries. *)
  let closure_key = ref None in
  let on_closure ~model ~compute =
    guard_deadline ();
    match cache with
    | None -> compute ()
    | Some c ->
      let key = Cache.digest ("closure", spec.family, legacy_props, model) in
      closure_key := Some key;
      let v, hit = Cache.closure c ~key compute in
      if hit then incr closure_hits else incr closure_misses;
      v
  in
  let on_check ~product:_ ~formulas ~compute =
    guard_deadline ();
    match (cache, !closure_key) with
    | Some c, Some closure ->
      let key =
        Cache.digest
          ( "check",
            strategy_string spec.strategy,
            formulas,
            Automaton.digest spec.context,
            closure )
      in
      let v, hit = Cache.check c ~key compute in
      if hit then incr check_hits else incr check_misses;
      v
    | _ -> compute ()
  in
  (* One box per job: fault-injection wrappers keep mutable counters, so the
     instance must be job-local (verdicts independent of sibling scheduling)
     but shared across retry attempts (a retry continues where the flaky
     driver left off instead of replaying the identical failure).  The same
     holds for the supervisor: its breaker state and statistics span the
     whole job. *)
  let injected =
    match spec.inject with
    | None -> Ok (spec.make_box ())
    | Some profile ->
      Result.map
        (fun inject -> inject (spec.make_box ()))
        (Faults.of_string ~seed:spec.seed profile)
  in
  let supervisor =
    match injected with
    | Error _ -> None
    | Ok box -> (
      match (spec.inject, spec.policy) with
      | None, None -> None
      | _ -> Some (Supervisor.create ~seed:spec.seed ?policy:spec.policy box))
  in
  let attempts, result =
    match injected with
    | Error msg -> (0, Error (Failed ("bad fault profile: " ^ msg)))
    | Ok box ->
      let observe =
        Option.map (fun sup ~inputs -> Supervisor.observe_hook sup ~inputs) supervisor
      in
      let rec attempt k =
        match
          Loop.run ~strategy:spec.strategy ~label_of:spec.label_of
            ?max_iterations:spec.max_iterations ~on_closure ~on_check ?observe
            ~incremental ~incremental_debug ?sharding ~context:spec.context
            ~property:spec.property ~legacy:box ()
        with
        | r -> (k, Ok r)
        | exception Out_of_time -> (k, Error Timed_out)
        | exception e ->
          if k <= spec.retries then attempt (k + 1)
          else (k, Error (Failed (Printexc.to_string e)))
      in
      attempt 1
  in
  let duration_s = Unix.gettimeofday () -. start in
  let cache =
    {
      closure_hits = !closure_hits;
      closure_misses = !closure_misses;
      check_hits = !check_hits;
      check_misses = !check_misses;
    }
  in
  let supervision = Option.map Supervisor.stats supervisor in
  match result with
  | Ok r ->
    let verdict =
      match r.Loop.verdict with
      | Loop.Proved -> Proved
      | Loop.Real_violation { kind = Loop.Deadlock; confirmed_by_test; _ } ->
        Real_deadlock { confirmed_by_test }
      | Loop.Real_violation { kind = Loop.Property; confirmed_by_test; _ } ->
        Real_property { confirmed_by_test }
      | Loop.Exhausted _ -> Exhausted
      | Loop.Degraded { reason; _ } -> Degraded { reason }
    in
    (* Peak automaton sizes across the run — structural facts of the scenario,
       deterministic across worker counts, caching and tracing (unlike the
       timing fields next to them). *)
    let max_closure_states, max_product_states =
      List.fold_left
        (fun (c, p) (it : Loop.iteration) ->
          (max c it.Loop.closure_states, max p it.Loop.product_states))
        (0, 0) r.Loop.iterations
    in
    {
      spec_id = spec.id;
      family = spec.family;
      verdict;
      iterations = List.length r.Loop.iterations;
      states_learned = r.Loop.states_learned;
      knowledge = Incomplete.knowledge r.Loop.final_model;
      tests_executed = r.Loop.tests_executed;
      test_steps = r.Loop.test_steps_executed;
      attempts;
      duration_s;
      closure_seconds = r.Loop.closure_seconds;
      check_seconds = r.Loop.check_seconds;
      test_seconds = r.Loop.test_seconds;
      max_closure_states;
      max_product_states;
      closure_delta_edges = r.Loop.closure_delta_edges;
      product_states_reused = 0;
      cache;
      fault = spec.inject;
      supervision;
    }
  | Error verdict ->
    {
      spec_id = spec.id;
      family = spec.family;
      verdict;
      iterations = 0;
      states_learned = 0;
      knowledge = 0;
      tests_executed = 0;
      test_steps = 0;
      attempts;
      duration_s;
      closure_seconds = 0.;
      check_seconds = 0.;
      test_seconds = 0.;
      max_closure_states = 0;
      max_product_states = 0;
      closure_delta_edges = 0;
      product_states_reused = 0;
      cache;
      fault = spec.inject;
      supervision;
    }

let run_spec ?cache ?incremental ?incremental_debug ?sharding (spec : spec) : outcome =
  Trace.with_span ~name:"campaign.job"
    ~args:
      [
        ("id", Trace.Str spec.id);
        ("family", Trace.Str spec.family);
        ("seed", Trace.Int spec.seed);
      ]
    (fun () ->
      run_spec_unobserved ?cache ?incremental ?incremental_debug ?sharding spec)

let run ?(jobs = 1) ?cache ?(memo = true) ?incremental ?incremental_debug ?sharding specs =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.id then
        invalid_arg (Printf.sprintf "Campaign.run: duplicate job id %S" s.id);
      Hashtbl.add seen s.id ())
    specs;
  let cache =
    if not memo then None
    else Some (match cache with Some c -> c | None -> Cache.create ())
  in
  Pool.map ~jobs
    ~f:(fun spec -> run_spec ?cache ?incremental ?incremental_debug ?sharding spec)
    (Array.of_list specs)
  |> Array.to_list

(* -- the bundled matrix -------------------------------------------------- *)

let bundled ?(tiny = false) () =
  let module R = Mechaml_scenarios.Railcab in
  let module P = Mechaml_scenarios.Protocol in
  let module W = Mechaml_scenarios.Watchdog in
  let module F = Mechaml_scenarios.Families in
  if tiny then
    [
      job ~id:"railcab/correct/constraint/bfs" ~family:"railcab" ~context:R.context
        ~property:R.constraint_ ~label_of:R.label_of (fun () -> R.box_correct);
      job ~id:"railcab/conflicting/constraint/bfs" ~family:"railcab" ~context:R.context
        ~property:R.constraint_ ~label_of:R.label_of (fun () -> R.box_conflicting);
      job ~id:"protocol/faulty/agreement/bfs" ~family:"protocol" ~context:P.receiver
        ~property:P.property ~label_of:P.label_of (fun () -> P.box_fire_and_forget);
      job ~id:"watchdog/prompt/deadline/bfs" ~family:"watchdog" ~context:W.watchdog
        ~property:W.property ~label_of:W.label_of (fun () -> W.box_prompt);
    ]
  else begin
    let strategies = [ Witness.Bfs_shortest; Witness.Dfs_first ] in
    let railcab =
      List.concat_map
        (fun strategy ->
          List.concat_map
            (fun (prop_name, property) ->
              List.map
                (fun (variant, box) ->
                  job
                    ~id:
                      (Printf.sprintf "railcab/%s/%s/%s" variant prop_name
                         (strategy_string strategy))
                    ~family:"railcab" ~context:R.context ~property ~strategy
                    ~label_of:R.label_of box)
                [
                  ("correct", fun () -> R.box_correct);
                  ("conflicting", fun () -> R.box_conflicting);
                ])
            [ ("constraint", R.constraint_); ("deadlockfree", Ctl.True) ])
        strategies
    in
    let railcab_faults =
      [
        (* deterministic lossy port: a fault variant whose dropped proposal
           genuinely deadlocks the pattern — a reproducible real verdict *)
        job ~id:"railcab/lossy/constraint/bfs" ~family:"railcab" ~context:R.context
          ~property:R.constraint_ ~label_of:R.label_of ~retries:1 (fun () ->
            Flaky.drop_outputs ~every:3 R.box_correct);
        (* nondeterministic driver: replay divergence crashes an attempt, the
           retry resumes the flip counter further along — still deterministic
           per job because the wrapper is job-local *)
        job ~id:"railcab/flaky/constraint/bfs" ~family:"railcab" ~context:R.context
          ~property:R.constraint_ ~label_of:R.label_of ~retries:2 (fun () ->
            Flaky.nondeterministic ~seed:3 ~flip_every:5 R.box_correct);
        (* supervised chaos: crashes retried, consistent lies outvoted — the
           verdict is the fault-free one, reached through the supervisor *)
        job ~id:"railcab/supervised/constraint/bfs" ~family:"railcab" ~context:R.context
          ~property:R.constraint_ ~label_of:R.label_of ~inject:"crash+flaky" ~seed:11
          ~policy:
            { Supervisor.default_policy with retries = 5; votes = 3; breaker = 24 }
          (fun () -> R.box_correct);
        (* a bricked driver crashes on every step: the breaker opens and the
           job degrades to whatever the chaotic closure already proves *)
        job ~id:"railcab/bricked/constraint/bfs" ~family:"railcab" ~context:R.context
          ~property:R.constraint_ ~label_of:R.label_of ~inject:"brick" ~seed:1
          ~policy:{ Supervisor.default_policy with retries = 4; breaker = 3 }
          (fun () -> R.box_correct);
      ]
    in
    let protocol =
      List.concat_map
        (fun (prop_name, property) ->
          List.map
            (fun (variant, box) ->
              job
                ~id:(Printf.sprintf "protocol/%s/%s/bfs" variant prop_name)
                ~family:"protocol" ~context:P.receiver ~property ~label_of:P.label_of box)
            [
              ("correct", fun () -> P.box_correct);
              ("faulty", fun () -> P.box_fire_and_forget);
            ])
        [ ("agreement", P.property); ("deadlockfree", Ctl.True) ]
    in
    let watchdog =
      List.concat_map
        (fun strategy ->
          List.map
            (fun (variant, box) ->
              job
                ~id:
                  (Printf.sprintf "watchdog/%s/deadline/%s" variant
                     (strategy_string strategy))
                ~family:"watchdog" ~context:W.watchdog ~property:W.property ~strategy
                ~label_of:W.label_of box)
            [ ("prompt", fun () -> W.box_prompt); ("sluggish", fun () -> W.box_sluggish) ])
        strategies
    in
    let lock =
      List.map
        (fun (n, depth, strategy) ->
          job
            ~id:
              (Printf.sprintf "lock/n%d-d%d/locked/%s" n depth (strategy_string strategy))
            ~family:"lock"
            ~context:(F.lock_context ~n ~depth)
            ~property:F.lock_property ~strategy ~label_of:F.lock_label_of (fun () ->
              F.lock_box ~n))
        [
          (12, 3, Witness.Bfs_shortest);
          (12, 6, Witness.Bfs_shortest);
          (16, 4, Witness.Bfs_shortest);
          (16, 4, Witness.Dfs_first);
          (* one order of magnitude up: closure construction and model
             checking dominate this instance, so it is the matrix's probe of
             the memo cache (warm runs skip almost all of its cost) *)
          (96, 48, Witness.Bfs_shortest);
        ]
    in
    railcab @ railcab_faults @ protocol @ watchdog @ lock
  end
