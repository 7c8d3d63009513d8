module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Run = Mechaml_ts.Run
module Compose = Mechaml_ts.Compose
module Ctl = Mechaml_logic.Ctl
module Checker = Mechaml_mc.Checker
module Sat = Mechaml_mc.Sat
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
      product : Compose.product;
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
  product_states_reused : int;
  sat_seed_hit_rate : float;
}

(* The projection of a product counterexample onto the legacy side, decoded
   into names: per step the input and output signal names, plus the closure
   state names visited. *)
type projected = {
  step_inputs : string list list;
  step_outputs : string list list;
  closure_states : string list;
}

let project_counterexample (product : Compose.product) witness =
  let run = Compose.project_right product witness in
  let closure = product.Compose.right in
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

let run ?(strategy = Witness.Bfs_shortest) ?(label_of = fun _ -> []) ?max_iterations
    ?initial_knowledge ?(counterexamples_per_iteration = 1)
    ?(on_closure = fun ~model:_ ~compute -> compute ())
    ?(on_check = fun ~product:_ ~formulas:_ ~compute -> compute ()) ?observe:observe_hook
    ?journal ?resume ?snapshot ?(incremental = true) ?(incremental_threshold = 128)
    ?(incremental_debug = false) ?sharding ~(context : Automaton.t) ~property
    ~(legacy : Blackbox.t) () =
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
  (* Incremental re-verification state, threaded across iterations: the
     chaotic-closure handle (delta closure), the product cache (re-explores
     only pairs whose closure projection changed) and the previous
     iteration's converged checker environment (warm-started fixpoints).
     All three produce results byte-identical to the from-scratch path;
     [incremental_debug] additionally recomputes each stage cold and fails
     on any divergence. *)
  let chaos_inc : Chaos.inc option ref = ref None in
  let prod_inc : Compose.Inc.t option ref = ref None in
  let prev_env : Sat.env option ref = ref None in
  (* Below [incremental_threshold] closure transitions a from-scratch rebuild
     is cheaper than maintaining the caches, so the machinery stays dormant
     until the state space outgrows the gate — and then stays on (the closure
     only grows).  Either path produces identical results. *)
  let inc_live = ref (incremental_threshold <= 0) in
  let delta_edges_total = ref 0 in
  let product_reused_total = ref 0 in
  let seed_hits = ref 0 and seed_total = ref 0 in
  (* The body of one iteration, factored out of the recursion so that the
     per-iteration profiling span closes before the next iteration starts
     (wrapping a recursive call would nest every iteration inside its
     predecessor's span).  Returns [`Done] with the finished run or
     [`Continue] with the enriched model. *)
  let step model index records =
    let closure =
      timed closure_seconds ~name:"loop.closure"
        ~args:[ ("iteration", Trace.Int index) ]
        (fun () ->
          on_closure ~model
            ~compute:(fun () ->
              if not (incremental && !inc_live) then
                Chaos.closure ~label_of ~extra_props:legacy_props model
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
              end))
    in
    if incremental then begin
      if (not !inc_live) && Automaton.num_transitions closure >= incremental_threshold then
        inc_live := true;
      if !inc_live then begin
        (* When the [on_closure] hook replayed a memoized closure (or the
           gate just flipped), [compute] never ran the handle — rebuild it
           around the existing automaton, keeping the previous handle so the
           dirty delta stays exact. *)
        let inc =
          match !chaos_inc with
          | Some inc when Chaos.auto inc == closure -> inc
          | prev -> Chaos.adopt ~label_of ~extra_props:legacy_props ~prev model closure
        in
        chaos_inc := Some inc;
        delta_edges_total := !delta_edges_total + Chaos.delta_edges inc
      end
    end;
    (* Equation (7): φ ∧ ¬δ.  The property is checked first so that a
       genuine integration conflict surfaces as a property counterexample
       (the paper's fast conflict detection, Listing 1.4) rather than as
       one of the deadlocks the chaotic closure also induces. *)
    let formulas = [ weakened; Ctl.deadlock_free ] in
    let check_env env = Checker.check_conjunction_env ~strategy env formulas in
    (* The out-of-core evaluators: explore the sharded product — in process
       or on the worker fleet — and answer [(states, holds)] from the global
       fixpoints, closing the product before returning. *)
    let sharded_verdict scfg =
      match scfg.Mechaml_ts.Shard.distribution with
      | Some _ ->
        let dp = Mechaml_dist.Distshard.explore ~config:scfg context closure in
        Fun.protect
          ~finally:(fun () -> Mechaml_dist.Distshard.close dp)
          (fun () ->
            let env = Mechaml_dist.Distsat.create dp in
            ( Mechaml_dist.Distshard.num_states dp,
              List.for_all (Mechaml_dist.Distsat.holds_initially env) formulas ))
      | None ->
        let sp = Mechaml_ts.Shard.explore ~config:scfg context closure in
        Fun.protect
          ~finally:(fun () -> Mechaml_ts.Shard.close sp)
          (fun () ->
            let env = Mechaml_mc.Shardsat.create sp in
            ( Mechaml_ts.Shard.num_states sp,
              List.for_all (Mechaml_mc.Shardsat.holds_initially env) formulas ))
    in
    let product_lazy, product_states, outcome =
      timed check_seconds ~name:"loop.check"
        ~args:[ ("iteration", Trace.Int index) ]
        (fun () ->
          match sharding with
          | Some scfg ->
            (* Sharded, out-of-core check, byte-identical to the materialized
               path for any shard count.  The materialized product is only
               built lazily, when a violation needs its witness machinery
               (projection, provenance, extra counterexamples) — so proved
               iterations never allocate the full state space in one piece.
               The incremental product/warm-start machinery is skipped: the
               sharded fixpoints recompute cold, with identical results. *)
            let product_lazy = lazy (Compose.parallel context closure) in
            let counted = ref None in
            let outcome =
              on_check ~product:closure ~formulas
                ~compute:(fun () ->
                  let states, holds = sharded_verdict scfg in
                  counted := Some states;
                  if holds then Checker.Holds
                  else check_env (Sat.create (Lazy.force product_lazy).Compose.auto))
            in
            let states =
              match !counted with
              | Some n -> n
              | None -> Automaton.num_states (Lazy.force product_lazy).Compose.auto
            in
            (product_lazy, states, outcome)
          | None ->
          let product, prod_stats =
            match (incremental && !inc_live, !chaos_inc) with
            | true, Some inc ->
              let pinc =
                match !prod_inc with
                | Some p -> p
                | None ->
                  let p = Compose.Inc.create context in
                  prod_inc := Some p;
                  p
              in
              (* Core closure copies keep their indices across updates; only
                 [s_∀]/[s_δ] shift when the core grows, so they key by
                 distance from the end. *)
              let n = Automaton.num_states closure in
              let stable_key r = if r >= n - 2 then r - n else r in
              let resolve k = if k < 0 then n + k else k in
              let p, stats =
                Compose.Inc.parallel pinc ~right:closure ~dirty:(Chaos.dirty_states inc)
                  ~stable_key ~resolve
              in
              product_reused_total := !product_reused_total + stats.Compose.Inc.reused;
              (p, Some stats)
            | _ -> (Compose.parallel context closure, None)
          in
          let env_used = ref None in
          let outcome =
            on_check ~product:product.Compose.auto ~formulas
              ~compute:(fun () ->
                let env =
                  match (prod_stats, !prev_env) with
                  | Some stats, Some prev ->
                    Sat.create_warm ~debug:incremental_debug ~prev
                      ~old_of:stats.Compose.Inc.old_of ~dirty:stats.Compose.Inc.dirty
                      product.Compose.auto
                  | _ -> Sat.create product.Compose.auto
                in
                env_used := Some env;
                check_env env)
          in
          (match !env_used with
          | Some env ->
            (match Sat.warm_stats env with
            | Some (h, t) ->
              seed_hits := !seed_hits + h;
              seed_total := !seed_total + t
            | None -> ())
          | None -> ());
          (* A memoized check verdict leaves no converged environment behind;
             the next iteration cold-starts its fixpoints.  Environments from
             below the size gate are dropped too — their product was built
             without the pair cache, so no [old_of] map relates its states to
             the next product's. *)
          prev_env := (if incremental && !inc_live then !env_used else None);
          (Lazy.from_val product, Automaton.num_states product.Compose.auto, outcome))
    in
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
      let product = Lazy.force product_lazy in
      let kind = if Ctl.equal formula Ctl.deadlock_free then Deadlock else Property in
      Log.info (fun m ->
          m "iteration %d: %s counterexample of length %d (%s)" index
            (match kind with Deadlock -> "deadlock" | Property -> "property")
            (Run.length witness) explanation);
      let proj = project_counterexample product witness in
      let base =
        {
          base with
          counterexample = Some (kind, witness);
          counterexample_length = Run.length witness;
        }
      in
      let knowledge_before = Incomplete.knowledge model in
      let finish_real ?(model = model) ~confirmed ~record () =
        `Done
          ( Real_violation { kind; formula; witness; product; confirmed_by_test = confirmed },
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
        let c_end = Compose.left_state product (Run.final_state witness) in
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
                let proj = project_counterexample product extra in
                if all_steps_known model proj then model
                else observe model proj.step_inputs
              end)
            model
            (Checker.more_witnesses
               ~limit:(counterexamples_per_iteration - 1)
               product.Compose.auto formula)
      in
      let continue_or_fail model' record =
        if Incomplete.knowledge model' <= knowledge_before then
          failwith
            (Printf.sprintf
               "Loop.run: no progress on a counterexample for %s — the witness carries a \
                nested temporal obligation the testing step cannot validate; use safety \
                (AG of a state predicate) or bounded-response properties"
               (Ctl.to_string formula))
        else `Continue (learn_extras model', record :: records)
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
               outputs for every fed input: walk the freshly learned model
               (which now contains the observation) and compare outputs.  The
               expected closure states cannot be compared — they are chaotic. *)
            let reproduced =
              let rec walk state ins outs =
                match (ins, outs) with
                | [], [] -> true
                | i :: ins', o :: outs' -> (
                  match Incomplete.known_response model' ~state ~inputs:i with
                  | Some (b, d) when b = List.sort_uniq compare o -> walk d ins' outs'
                  | _ -> false)
                | _ -> false
              in
              match model'.Incomplete.initial with
              | [ q ] -> walk q proj.step_inputs proj.step_outputs
              | _ -> false
            in
            let gained = Incomplete.knowledge model' - knowledge_before in
            let test =
              Some { inputs_fed = proj.step_inputs; reproduced; knowledge_gained = gained }
            in
            if reproduced then begin
              if complete then
                finish_real ~model:model' ~confirmed:true ~record:{ base with test } ()
              else begin
                (* The trace reproduced; find the real final state by walking
                   the learned model, then validate the residual claim there. *)
                let final_core =
                  let rec walk state = function
                    | [] -> state
                    | i :: ins -> (
                      match Incomplete.known_response model' ~state ~inputs:i with
                      | Some (_, d) -> walk d ins
                      | None -> state)
                  in
                  match model'.Incomplete.initial with
                  | [ q ] -> walk q proj.step_inputs
                  | _ -> assert false
                in
                let model'', probes, status =
                  analyse_final model' ~final_core ~prefix_inputs:proj.step_inputs
                in
                let record = { base with test; probes } in
                match status with
                | `Confirmed -> finish_real ~model:model'' ~confirmed:true ~record ()
                | `Refuted -> continue_or_fail model'' record
              end
            end
            else begin
              assert (gained > 0);
              `Continue (learn_extras model', { base with test } :: records)
            end)
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
          let product = Compose.parallel context closure in
          List.partition (Checker.holds product.Compose.auto) [ weakened; Ctl.deadlock_free ])
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
    product_states_reused = !product_reused_total;
    sat_seed_hit_rate =
      (if !seed_total = 0 then 0. else float_of_int !seed_hits /. float_of_int !seed_total);
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
