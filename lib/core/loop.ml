module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Run = Mechaml_ts.Run
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Ctl = Mechaml_logic.Ctl
module Checker = Mechaml_mc.Checker
module Shardsat = Mechaml_mc.Shardsat
module Eval = Mechaml_mc.Eval
module Witness = Mechaml_mc.Witness
module Blackbox = Mechaml_legacy.Blackbox
module Observation = Mechaml_legacy.Observation
module Log = Mechaml_obs.Log
module Trace = Mechaml_obs.Trace
module Prof = Mechaml_obs.Prof
module Metrics = Mechaml_obs.Metrics
module Clock = Mechaml_obs.Clock

let m_iterations =
  Metrics.counter "loop_iterations_total" ~help:"Synthesis-loop iterations executed."

let m_tests =
  Metrics.counter "loop_tests_total" ~help:"Driver queries executed by the synthesis loop."

let m_test_steps =
  Metrics.counter "loop_test_steps_total" ~help:"Input steps fed to the driver by the loop."

let m_facts =
  Metrics.counter "loop_facts_learned_total"
    ~help:"Knowledge facts learned from driver observations."

type violation_kind = Deadlock | Property

type verdict =
  | Proved
  | Real_violation of {
      kind : violation_kind;
      formula : Ctl.t;
      witness : Run.t;
      product : Compose.product Lazy.t;
      confirmed_by_test : bool;
    }
  | Exhausted of { iterations : int }
  | Degraded of {
      reason : string;
      at_iteration : int;
      model_states : int;
      knowledge : int;
      closure_states : int;
      proved_on_closure : Ctl.t list;
      unknown_for_real : Ctl.t list;
    }

type test_report = {
  inputs_fed : string list list;
  reproduced : bool;
  knowledge_gained : int;
}

type iteration = {
  index : int;
  model_states : int;
  model_knowledge : int;
  closure_states : int;
  product_states : int;
  counterexample : (violation_kind * Run.t) option;
  counterexample_length : int;
  fast_real : bool;
  test : test_report option;
  probes : int;
}

type result = {
  verdict : verdict;
  iterations : iteration list;
  final_model : Incomplete.t;
  tests_executed : int;
  test_steps_executed : int;
  states_learned : int;
  legacy_state_bound : int;
  closure_seconds : float;
  check_seconds : float;
  test_seconds : float;
  closure_delta_edges : int;
}

(* The projection of a product counterexample onto the legacy side, decoded
   into names: per step the input and output signal names, plus the closure
   state names visited. *)
type projected = {
  step_inputs : string list list;
  step_outputs : string list list;
  closure_states : string list;
}

let project_counterexample ~context ~(closure : Automaton.t) sp witness =
  let run = Compose.project_pairs `Right ~left:context ~right:closure ~pair:(Shard.pair sp) witness in
  {
    step_inputs =
      List.map
        (fun (a, _) -> Universe.names_of_set closure.Automaton.inputs a)
        (Run.trace run);
    step_outputs =
      List.map
        (fun (_, b) -> Universe.names_of_set closure.Automaton.outputs b)
        (Run.trace run);
    closure_states = List.map (Automaton.state_name closure) (Run.state_sequence run);
  }

(* Walk the projected counterexample against the learned model: [true] iff
   every step is a known transition of T (then the synthesized part of the
   counterexample is real behaviour — fast conflict detection). *)
let all_steps_known (model : Incomplete.t) proj =
  let rec go states ins outs =
    match (states, ins, outs) with
    | _ :: [], [], [] -> true
    | pre :: (post :: _ as rest), i :: ins', o :: outs' -> (
      match (Chaos.origin pre, Chaos.origin post) with
      | Chaos.Core pre_core, Chaos.Core post_core -> (
        match Incomplete.known_response model ~state:pre_core ~inputs:i with
        | Some (b, d) when b = List.sort_uniq compare o && d = post_core ->
          go rest ins' outs'
        | _ -> false)
      | _ -> false)
    | _ -> false
  in
  go proj.closure_states proj.step_inputs proj.step_outputs

(* Replay a test's inputs on the learned model (which contains the test's
   observation): the core state reached, exactly when every step produced
   the expected outputs. *)
let replay (model : Incomplete.t) inputs outputs =
  let rec walk state ins outs =
    match (ins, outs) with
    | [], [] -> Some state
    | i :: ins', o :: outs' -> (
      match Incomplete.known_response model ~state ~inputs:i with
      | Some (b, d) when b = List.sort_uniq compare o -> walk d ins' outs'
      | _ -> None)
    | _ -> None
  in
  match model.Incomplete.initial with [ q ] -> walk q inputs outputs | _ -> None

(* Candidate legacy interactions the context offers in a given context state:
   for each context transition, the legacy must consume the context's outputs
   on the shared signals and produce the context's inputs on the shared
   signals (Definition 3). *)
let candidates_at (context : Automaton.t) (legacy : Blackbox.t) c_state =
  List.map
    (fun (t : Automaton.trans) ->
      let a_cand =
        List.filter
          (fun n -> List.mem n legacy.Blackbox.input_signals)
          (Universe.names_of_set context.Automaton.outputs t.output)
      in
      let b_cand =
        List.filter
          (fun n -> List.mem n legacy.Blackbox.output_signals)
          (Universe.names_of_set context.Automaton.inputs t.input)
      in
      (List.sort_uniq compare a_cand, List.sort_uniq compare b_cand))
    (Automaton.transitions_from context c_state)
  |> List.sort_uniq compare

type candidate_status = Known_impossible | Known_compatible | Unknown

let candidate_status model ~state (a, b) =
  if Incomplete.refuses model ~state ~inputs:a then Known_impossible
  else
    match Incomplete.known_response model ~state ~inputs:a with
    | Some (b', _) -> if b' = b then Known_compatible else Known_impossible
    | None -> Unknown

(* Raised (internally) by the observe wrapper when the supervised driver gives
   up on a query — caught at the top of [run] to degrade gracefully. *)
exception Degrade of string

(* A check's product, the evaluator's view of it and how to release it. *)
type product = { sp : Shard.t; backend : Eval.backend; close : unit -> unit }

(* The one reader of [distribution]: a fleet changes where the levels of
   the build are expanded and where the fixpoints run, nothing else. *)
let explore (config : Shard.config) left right =
  match config.Shard.distribution with
  | None ->
    let sp = Shard.explore ~config left right in
    { sp; backend = Shardsat.backend sp; close = (fun () -> Shard.close sp) }
  | Some _ ->
    let dp = Mechaml_dist.Distshard.explore ~config left right in
    let sp = Mechaml_dist.Distshard.shard dp in
    {
      sp;
      backend = Shardsat.backend ~fleet:(Mechaml_dist.Distsat.fleet dp) sp;
      close = (fun () -> Mechaml_dist.Distshard.close dp);
    }

let run ?(strategy = Witness.Bfs_shortest) ?(label_of = fun _ -> []) ?max_iterations
    ?initial_knowledge ?(counterexamples_per_iteration = 1)
    ?(on_closure = fun ~model:_ ~compute -> compute ())
    ?(on_check = fun ~product:_ ~formulas:_ ~compute -> compute ()) ?observe:observe_hook
    ?journal ?resume ?snapshot ?(incremental = true) ?(incremental_debug = false) ?sharding
    ~(context : Automaton.t) ~property ~(legacy : Blackbox.t) () =
  if not (Ctl.is_compositional property) then
    invalid_arg
      (Printf.sprintf
         "Loop.run: property %s is not compositional (Definition 5) — Lemma 5 would not \
          transfer the verdict to the real system"
         (Ctl.to_string property));
  let subset l u = List.for_all (fun n -> Universe.mem u n) l in
  if not (subset legacy.Blackbox.input_signals context.Automaton.outputs) then
    invalid_arg "Loop.run: some legacy input signal is not produced by the context";
  if not (subset legacy.Blackbox.output_signals context.Automaton.inputs) then
    invalid_arg "Loop.run: some legacy output signal is not consumed by the context";
  let weakened =
    Mechaml_logic.Simplify.simplify (Ctl.weaken_for_chaos ~chaos_prop:Chaos.chaos_prop property)
  in
  let bound =
    match max_iterations with
    | Some n -> n
    | None ->
      (legacy.Blackbox.state_bound * (1 lsl List.length legacy.Blackbox.input_signals)) + 1
  in
  let tests_executed = ref 0 and test_steps = ref 0 in
  (* Per-phase wall-clock accumulators; they feed the report's timing columns
     so they are maintained whether or not tracing/metrics are on (two
     [gettimeofday] calls per phase — noise next to the phases themselves). *)
  let closure_seconds = ref 0. and check_seconds = ref 0. and test_seconds = ref 0. in
  let timed cell ?(args = []) ~name f =
    let t0 = Clock.wall () in
    let note () = cell := !cell +. (Clock.wall () -. t0) in
    match Prof.phase ~args ~name f with
    | v ->
      note ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      note ();
      Printexc.raise_with_backtrace e bt
  in
  (* Degradation bookkeeping: the freshest model/iteration seen, so that when
     the supervised driver gives up mid-iteration nothing already learned is
     lost from the report. *)
  let latest_model = ref (Synthesis.initial_model legacy) in
  let current_index = ref 0 in
  let latest_records = ref [] in
  let journal_path = match journal with Some _ -> journal | None -> resume in
  let raw_observe =
    match observe_hook with
    | Some f -> f
    | None -> fun ~inputs -> Ok (Observation.observe ~box:legacy ~inputs)
  in
  let observe model inputs =
    incr tests_executed;
    test_steps := !test_steps + List.length inputs;
    Metrics.incr m_tests;
    Metrics.add m_test_steps (List.length inputs);
    timed test_seconds ~name:"loop.query"
      ~args:[ ("steps", Trace.Int (List.length inputs)) ]
      (fun () ->
        match raw_observe ~inputs with
        | Error reason -> raise (Degrade reason)
        | Ok obs ->
          (match journal_path with Some path -> Journal.append ~path obs | None -> ());
          let knowledge_before = Incomplete.knowledge model in
          let model = Incomplete.learn_observation model obs in
          let gained = Incomplete.knowledge model - knowledge_before in
          Metrics.add m_facts gained;
          if gained > 0 then
            Trace.instant ~name:"loop.facts" ~args:[ ("gained", Trace.Int gained) ] ();
          latest_model := model;
          model)
  in
  (* The property's legacy-side propositions must exist in the closure's
     universe from iteration 0 on, even before any state carrying them is
     learned; the context-side ones live in the context automaton. *)
  let legacy_props =
    List.filter (fun p -> not (Universe.mem context.Automaton.props p)) (Ctl.props property)
  in
  let initial_model =
    match initial_knowledge with
    | None -> Synthesis.initial_model legacy
    | Some k ->
      (* Grey-box seeding: the caller vouches for these facts the way the
         loop vouches for observations. *)
      let same l l' = List.sort compare l = List.sort compare l' in
      if not (same k.Incomplete.input_signals legacy.Blackbox.input_signals) then
        invalid_arg "Loop.run: initial_knowledge has a different input alphabet";
      if not (same k.Incomplete.output_signals legacy.Blackbox.output_signals) then
        invalid_arg "Loop.run: initial_knowledge has a different output alphabet";
      if k.Incomplete.initial <> [ legacy.Blackbox.initial_state ] then
        invalid_arg "Loop.run: initial_knowledge has a different initial state";
      k
  in
  (* Crash recovery: fold the journalled observations of the interrupted run
     back into the model, and skip straight past every iteration whose
     refutation the journal already recorded — their learning is in the
     replayed observations, so re-counting them would double-charge the
     iteration budget.  Replayed observations cost no driver executions, so
     they are not counted as tests. *)
  let initial_model, start_index =
    match resume with
    | None -> (initial_model, 0)
    | Some path -> (
      match Journal.load_all ~path with
      | Error { line; message } ->
        invalid_arg
          (Printf.sprintf "Loop.run: cannot resume from %s (line %d: %s)" path line message)
      | Ok (records, torn) ->
        if torn then
          Log.warn (fun m ->
              m "journal %s: dropped a torn final record (interrupted append)" path);
        let observations =
          List.filter_map (function Journal.Obs o -> Some o | Journal.Iter _ -> None) records
        in
        let last_iter =
          List.fold_left
            (fun acc -> function Journal.Iter i -> max acc i | Journal.Obs _ -> acc)
            (-1) records
        in
        Log.info (fun m ->
            m "resuming: replaying %d journalled observation(s) from %s, continuing at \
               iteration %d"
              (List.length observations) path (last_iter + 1));
        ( List.fold_left
            (fun model obs ->
              try Incomplete.learn_observation model obs
              with Invalid_argument msg ->
                invalid_arg
                  (Printf.sprintf
                     "Loop.run: journal %s contradicts the driver or the seeded knowledge \
                      (%s) — was it recorded against a different component?"
                     path msg))
            initial_model observations,
          last_iter + 1 ))
  in
  latest_model := initial_model;
  let last_snapshot = ref (-1) in
  let take_snapshot model =
    match snapshot with
    | Some path when Incomplete.knowledge model > !last_snapshot ->
      Knowledge_io.save_atomic ~path model;
      last_snapshot := Incomplete.knowledge model
    | _ -> ()
  in
  let sharding = Option.value sharding ~default:(Shard.config ()) in
  (* The delta-closure handle, threaded across iterations: each update
     rebuilds only the rows the model's delta changed, byte-identical to a
     fresh closure; [incremental_debug] additionally builds each closure
     fresh and fails on any divergence. *)
  let chaos_inc : Chaos.inc option ref = ref None in
  let delta_edges_total = ref 0 in
  (* The body of one iteration, factored out of the recursion so that the
     per-iteration profiling span closes before the next iteration starts
     (wrapping a recursive call would nest every iteration inside its
     predecessor's span).  Returns [`Done] with the finished run or
     [`Continue] with the enriched model. *)
  let step model index records =
    (* The handle moves to [model] at most once per iteration, however often
       the hook calls [compute]; a later call returns the same closure. *)
    let computed = ref None in
    let compute () =
      match !computed with
      | Some closure -> closure
      | None ->
        let closure =
          if not incremental then Chaos.closure ~label_of ~extra_props:legacy_props model
          else begin
            let inc =
              match !chaos_inc with
              | Some inc ->
                Chaos.update ~debug:incremental_debug inc model;
                inc
              | None -> Chaos.inc_closure ~label_of ~extra_props:legacy_props model
            in
            chaos_inc := Some inc;
            Chaos.auto inc
          end
        in
        computed := Some closure;
        closure
    in
    let closure =
      timed closure_seconds ~name:"loop.closure"
        ~args:[ ("iteration", Trace.Int index) ]
        (fun () -> on_closure ~model ~compute)
    in
    if incremental then begin
      (* When the [on_closure] hook replayed a memoized closure, [compute]
         never ran the handle — extend it by the delta around the replayed
         automaton, so its next update patches exactly the changed rows.
         A hook may also return
         an equal copy of what [compute] built: the handle is then current
         already. *)
      let inc =
        match (!chaos_inc, !computed) with
        | Some inc, Some _ -> inc
        | prev, _ -> Chaos.adopt ~label_of ~extra_props:legacy_props ~prev model closure
      in
      chaos_inc := Some inc;
      delta_edges_total := !delta_edges_total + Chaos.delta_edges inc
    end;
    (* Equation (7): φ ∧ ¬δ.  The property is checked first so that a
       genuine integration conflict surfaces as a property counterexample
       (the paper's fast conflict detection, Listing 1.4) rather than as
       one of the deadlocks the chaotic closure also induces. *)
    let formulas = [ weakened; Ctl.deadlock_free ] in
    (* The check's only input is the operand pair: the product is explored
       here and checked in [compute]. *)
    let product, env_used, outcome =
      timed check_seconds ~name:"loop.check"
        ~args:[ ("iteration", Trace.Int index) ]
        (fun () ->
          let product = explore sharding context closure in
          let env_used = ref None in
          match
            on_check ~product:(context, closure) ~formulas ~compute:(fun () ->
                let env = Eval.create product.backend in
                env_used := Some env;
                Checker.check_space ~strategy
                  (Shardsat.space product.sp ~sat:(Eval.sat_vec env))
                  formulas)
          with
          | outcome -> (product, !env_used, outcome)
          | exception e ->
            product.close ();
            raise e)
    in
    (* One product is open at a time: it is released when the iteration
       is done. *)
    Fun.protect ~finally:product.close @@ fun () ->
    let sp = product.sp in
    let product_states = Shard.num_states sp in
    let base =
      {
        index;
        model_states = Incomplete.num_states model;
        model_knowledge = Incomplete.knowledge model;
        closure_states = Automaton.num_states closure;
        product_states;
        counterexample = None;
        counterexample_length = 0;
        fast_real = false;
        test = None;
        probes = 0;
      }
    in
    match outcome with
    | Checker.Holds ->
      Log.info (fun m -> m "iteration %d: property proved" index);
      `Done (Proved, List.rev (base :: records), model)
    | Checker.Violated { formula; witness; explanation; complete } ->
      let kind = if Ctl.equal formula Ctl.deadlock_free then Deadlock else Property in
      Log.info (fun m ->
          m "iteration %d: %s counterexample of length %d (%s)" index
            (match kind with Deadlock -> "deadlock" | Property -> "property")
            (Run.length witness) explanation);
      let proj = project_counterexample ~context ~closure sp witness in
      let base =
        {
          base with
          counterexample = Some (kind, witness);
          counterexample_length = Run.length witness;
        }
      in
      let knowledge_before = Incomplete.knowledge model in
      (* a memoized verdict brought no environment; extra witnesses need one *)
      let env =
        lazy (match env_used with Some env -> env | None -> Eval.create product.backend)
      in
      let finish_real ?(model = model) ~confirmed ~record () =
        `Done
          ( Real_violation
              {
                kind;
                formula;
                witness;
                product = lazy (Compose.parallel context closure);
                confirmed_by_test = confirmed;
              },
            List.rev (record :: records),
            model )
      in
      (* Residual-evidence analysis at the final state: the witness claims
         the run cannot be extended there (a deadlock, or a blocked
         maximal run discharging a bounded obligation).  Decide from known
         facts — or by probing the component — whether the context ∥
         legacy composition really has no joint move in that state.  All
         unknown candidates are probed (each probe is a learning step), so
         a [`Refuted] without new knowledge is impossible for
         blocking-based evidence. *)
      let analyse_final model ~final_core ~prefix_inputs =
        let c_end = fst (Shard.pair sp (Run.final_state witness)) in
        let cands = candidates_at context legacy c_end in
        let rec go model probes refuted = function
          | [] -> (model, probes, if refuted then `Refuted else `Confirmed)
          | cand :: rest -> (
            match candidate_status model ~state:final_core cand with
            | Known_impossible -> go model probes refuted rest
            | Known_compatible -> go model probes true rest
            | Unknown ->
              let a, _ = cand in
              let model = observe model (prefix_inputs @ [ a ]) in
              let probes = probes + 1 in
              let refuted =
                refuted
                || candidate_status model ~state:final_core cand = Known_compatible
              in
              go model probes refuted rest)
        in
        go model 0 false cands
      in
      (* Batched counterexamples (the paper's future-work improvement):
         before the next model-checking round, also test the other nearest
         violations of the same property and merge what they teach. *)
      let learn_extras model =
        if counterexamples_per_iteration <= 1 then model
        else
          List.fold_left
            (fun model extra ->
              if Run.final_state extra = Run.final_state witness then model
              else begin
                let proj = project_counterexample ~context ~closure sp extra in
                if all_steps_known model proj then model
                else observe model proj.step_inputs
              end)
            model
            (Checker.more_witnesses
               ~limit:(counterexamples_per_iteration - 1)
               (Shardsat.space sp ~sat:(Eval.sat_vec (Lazy.force env)))
               formula)
      in
      let continue model record = `Continue (learn_extras model, record :: records) in
      let continue_or_fail model' record =
        if Incomplete.knowledge model' <= knowledge_before then
          failwith
            (Printf.sprintf
               "Loop.run: no progress on a counterexample for %s — the witness carries a \
                nested temporal obligation the testing step cannot validate; use safety \
                (AG of a state predicate) or bounded-response properties"
               (Ctl.to_string formula))
        else continue model' record
      in
      if all_steps_known model proj then begin
        (* The whole synthesized part of the counterexample is learned —
           hence real — behaviour (fast conflict detection). *)
        if complete then
          finish_real ~confirmed:false ~record:{ base with fast_real = true } ()
        else begin
          let final_core =
            match Chaos.origin (List.nth proj.closure_states (Run.length witness)) with
            | Chaos.Core s -> s
            | Chaos.Chaotic -> assert false (* all_steps_known excludes chaos *)
          in
          let model', probes, status =
            analyse_final model ~final_core ~prefix_inputs:proj.step_inputs
          in
          let record = { base with fast_real = probes = 0; probes } in
          match status with
          | `Confirmed -> finish_real ~model:model' ~confirmed:(probes > 0) ~record ()
          | `Refuted -> continue_or_fail model' record
        end
      end
      else
        (* Counterexample reaches into chaos: run it as a test under
           deterministic replay (Sections 4.2 / 5). *)
        Prof.phase ~name:"loop.test" (fun () ->
            let model' = observe model proj.step_inputs in
            (* Reproduced iff the component produced exactly the expected
               outputs for every fed input.  The expected closure states
               cannot be compared — they are chaotic. *)
            let reached = replay model' proj.step_inputs proj.step_outputs in
            let gained = Incomplete.knowledge model' - knowledge_before in
            let test =
              Some
                {
                  inputs_fed = proj.step_inputs;
                  reproduced = Option.is_some reached;
                  knowledge_gained = gained;
                }
            in
            match reached with
            | None ->
              assert (gained > 0);
              continue model' { base with test }
            | Some _ when complete ->
              finish_real ~model:model' ~confirmed:true ~record:{ base with test } ()
            | Some final_core -> (
              (* The trace reproduced at [final_core]; validate the
                 residual claim there. *)
              let model'', probes, status =
                analyse_final model' ~final_core ~prefix_inputs:proj.step_inputs
              in
              let record = { base with test; probes } in
              match status with
              | `Confirmed -> finish_real ~model:model'' ~confirmed:true ~record ()
              | `Refuted -> continue_or_fail model'' record))
  in
  let rec iterate model index records =
    latest_model := model;
    current_index := index;
    latest_records := records;
    take_snapshot model;
    if index >= bound then (Exhausted { iterations = index }, List.rev records, model)
    else begin
      Metrics.incr m_iterations;
      match
        Prof.phase ~name:"loop.iteration"
          ~args:[ ("iteration", Trace.Int index) ]
          (fun () -> step model index records)
      with
      | `Done (verdict, iterations, final) -> (verdict, iterations, final)
      | `Continue (model', records') ->
        (* The iteration's counterexample was refuted and its learning is
           journalled above this record, so a resumed run can skip it. *)
        (match journal_path with
        | Some path -> Journal.append_iteration ~path index
        | None -> ());
        iterate model' (index + 1) records'
    end
  in
  (* Graceful degradation (the robustness analogue of Theorem 1): when the
     supervisor gives up, the chaotic closure of everything learned so far is
     still a safe abstraction of the real component, so any formula that
     holds on context ∥ closure is {e proved} for the real composition even
     though the driver is gone. *)
  let degrade reason =
    let model = !latest_model in
    let closure =
      timed closure_seconds ~name:"loop.closure" (fun () ->
          Chaos.closure ~label_of ~extra_props:legacy_props model)
    in
    let proved_on_closure, unknown_for_real =
      timed check_seconds ~name:"loop.check" (fun () ->
          let product = explore sharding context closure in
          Fun.protect ~finally:product.close (fun () ->
              List.partition
                (Eval.holds_initially (Eval.create product.backend))
                [ weakened; Ctl.deadlock_free ]))
    in
    Log.warn (fun m ->
        m "degrading after iteration %d: %s (%d of %d obligations proved on the closure)"
          !current_index reason (List.length proved_on_closure) 2);
    ( Degraded
        {
          reason;
          at_iteration = !current_index;
          model_states = Incomplete.num_states model;
          knowledge = Incomplete.knowledge model;
          closure_states = Automaton.num_states closure;
          proved_on_closure;
          unknown_for_real;
        },
      List.rev !latest_records,
      model )
  in
  let verdict, iterations, final_model =
    try iterate initial_model start_index [] with Degrade reason -> degrade reason
  in
  take_snapshot final_model;
  {
    verdict;
    iterations;
    final_model;
    tests_executed = !tests_executed;
    test_steps_executed = !test_steps;
    states_learned = Incomplete.num_states final_model;
    legacy_state_bound = legacy.Blackbox.state_bound;
    closure_seconds = !closure_seconds;
    check_seconds = !check_seconds;
    test_seconds = !test_seconds;
    closure_delta_edges = !delta_edges_total;
  }

let pp_iteration ppf (it : iteration) =
  Format.fprintf ppf
    "iter %d: model %d states / %d facts; closure %d states; product %d states; %s%s%s"
    it.index it.model_states it.model_knowledge it.closure_states it.product_states
    (match it.counterexample with
    | None -> "proved"
    | Some (Deadlock, _) -> Printf.sprintf "deadlock CE (len %d)" it.counterexample_length
    | Some (Property, _) -> Printf.sprintf "property CE (len %d)" it.counterexample_length)
    (if it.fast_real then "; fast-real" else "")
    (match it.test with
    | None -> ""
    | Some t ->
      Printf.sprintf "; test %s, +%d facts"
        (if t.reproduced then "reproduced" else "diverged")
        t.knowledge_gained)

let pp_result ppf (r : result) =
  Format.fprintf ppf "@[<v>";
  List.iter (fun it -> Format.fprintf ppf "%a@," pp_iteration it) r.iterations;
  (match r.verdict with
  | Proved ->
    Format.fprintf ppf "verdict: PROVED after %d iterations (learned %d/%d states)@,"
      (List.length r.iterations) r.states_learned r.legacy_state_bound
  | Real_violation { kind; confirmed_by_test; _ } ->
    Format.fprintf ppf "verdict: REAL %s (%s)@,"
      (match kind with Deadlock -> "deadlock" | Property -> "property violation")
      (if confirmed_by_test then "confirmed by test" else "fast conflict detection")
  | Exhausted { iterations } ->
    Format.fprintf ppf "verdict: iteration budget exhausted after %d iterations@," iterations
  | Degraded { reason; at_iteration; model_states; knowledge; proved_on_closure; unknown_for_real; _ }
    ->
    Format.fprintf ppf
      "verdict: DEGRADED at iteration %d — %s@,proved so far (safe on the chaotic closure \
       of %d states / %d facts): %s@,still unknown for the real component: %s@,"
      at_iteration reason model_states knowledge
      (match proved_on_closure with
      | [] -> "nothing yet"
      | fs -> String.concat "; " (List.map Ctl.to_string fs))
      (match unknown_for_real with
      | [] -> "nothing"
      | fs -> String.concat "; " (List.map Ctl.to_string fs)));
  Format.fprintf ppf "tests: %d (%d steps)@]" r.tests_executed r.test_steps_executed
