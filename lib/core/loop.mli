(** Iterative behavior synthesis (Section 4, Theorem 2).

    Starting from the initial abstraction [M_a⁰] (Section 3), each iteration:

    + model checks [M_a^c ∥ M_a^i ⊨ φ ∧ ¬δ] (equation 7, Section 4.1) with
      the property weakened for the chaos states (Section 2.7);
    + on success stops with {!Proved} — by Lemma 5 the property then holds
      for the real composition [M_r^c ∥ M_r];
    + otherwise derives a test from the counterexample (Section 4.2 /
      Section 5) and executes it against the legacy component under
      deterministic replay.  A counterexample whose synthesized part consists
      only of learned behaviour is already real ({e fast conflict detection},
      Listing 1.4) and skips the test.  A reproduced counterexample is a real
      integration fault (Lemma 6, no false negatives); a divergent or blocked
      run is merged into [M_l^{i+1}] (Definitions 11/12, Lemma 7) and the
      loop continues;
    + deadlock counterexamples whose trace reproduces additionally probe the
      interactions the context offers in the final state, either refuting the
      deadlock (new behaviour learned) or confirming it.

    Every non-final iteration strictly increases [Incomplete.knowledge]
    (asserted at runtime), which is bounded for a finite-state deterministic
    legacy component — the loop terminates (Theorem 2). *)

type violation_kind = Deadlock | Property

type verdict =
  | Proved
      (** [φ ∧ ¬δ] holds for context ∥ legacy — without having learned the
          whole legacy component *)
  | Real_violation of {
      kind : violation_kind;
      formula : Mechaml_logic.Ctl.t;
      witness : Mechaml_ts.Run.t;     (** run of the final iteration's product *)
      product : Mechaml_ts.Compose.product Lazy.t;
          (** that product, materialized with names and provenance when
              forced (the witness's state ids are its state ids) *)
      confirmed_by_test : bool;
          (** [false] = fast conflict detection: the violation lies entirely
              in already-learned behaviour *)
    }
  | Exhausted of { iterations : int }
      (** iteration budget hit (only possible when [max_iterations] is set
          below the theoretical bound) *)
  | Degraded of {
      reason : string;  (** why the supervised driver gave up *)
      at_iteration : int;
      model_states : int;
      knowledge : int;  (** facts accumulated before degradation *)
      closure_states : int;
      proved_on_closure : Mechaml_logic.Ctl.t list;
          (** obligations (weakened property, deadlock freedom) that hold on
              context ∥ closure of the partial knowledge — by Theorem 1 the
              closure is a safe abstraction, so these hold for the {e real}
              composition despite the dead driver *)
      unknown_for_real : Mechaml_logic.Ctl.t list;
          (** obligations the partial closure cannot discharge *)
    }
      (** the driver became unusable (supervisor circuit breaker open) before
          a definite verdict; the chaotic closure of everything learned so
          far is reported instead of losing the run *)

type test_report = {
  inputs_fed : string list list;
  reproduced : bool;
  knowledge_gained : int;
}

type iteration = {
  index : int;  (** 0-based; iteration [i] checks [M_a^i] *)
  model_states : int;
  model_knowledge : int;
  closure_states : int;
  product_states : int;
  counterexample : (violation_kind * Mechaml_ts.Run.t) option;  (** [None] = proved *)
  counterexample_length : int;
  fast_real : bool;  (** violation recognised as real without testing *)
  test : test_report option;
  probes : int;  (** deadlock-refutation probes executed *)
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
      (** wall-clock time spent building chaotic closures (cache lookups
          included when an [on_closure] hook memoizes) *)
  check_seconds : float;
      (** wall-clock time spent composing the product and model checking *)
  test_seconds : float;
      (** wall-clock time spent querying the driver (tests and probes) *)
  closure_delta_edges : int;
      (** row entries rebuilt by incremental closure updates over the whole
          run — explicit transitions and escapes' excluded input patterns
          of dirty rows ({!Chaos.delta_edges}); 0 when [incremental] is off,
          where every closure is built fresh *)
  product_states_reused : int;
      (** product states outside the dirty set handed to the warm-started
          checker — their (context state, closure state) pair existed in the
          previous iteration's product and their closure row did not change
          — summed over all iterations *)
  sat_seed_hit_rate : float;
      (** fraction of unbounded fixpoint computations that were warm-started
          from the previous iteration's converged sets ([0.] when
          [incremental] is off or no fixpoint was seedable) *)
}

val run :
  ?strategy:Mechaml_mc.Witness.strategy ->
  ?label_of:(string -> string list) ->
  ?max_iterations:int ->
  ?initial_knowledge:Incomplete.t ->
  ?counterexamples_per_iteration:int ->
  ?on_closure:
    (model:Incomplete.t ->
    compute:(unit -> Mechaml_ts.Automaton.t) ->
    Mechaml_ts.Automaton.t) ->
  ?on_check:
    (product:Mechaml_ts.Automaton.t * Mechaml_ts.Automaton.t ->
    formulas:Mechaml_logic.Ctl.t list ->
    compute:(unit -> Mechaml_mc.Checker.outcome) ->
    Mechaml_mc.Checker.outcome) ->
  ?observe:
    (inputs:string list list ->
    (Mechaml_legacy.Observation.t, string) Stdlib.result) ->
  ?journal:string ->
  ?resume:string ->
  ?snapshot:string ->
  ?incremental:bool ->
  ?incremental_debug:bool ->
  ?sharding:Mechaml_ts.Shard.config ->
  context:Mechaml_ts.Automaton.t ->
  property:Mechaml_logic.Ctl.t ->
  legacy:Mechaml_legacy.Blackbox.t ->
  unit ->
  result
(** [context] is the abstract context model [M_a^c] (roles, connectors and
    peer components already composed into one automaton).  [property] must be
    compositional in the sense of Definition 5 (checked;
    [Invalid_argument] otherwise — a non-ACTL property would not be preserved
    by Lemma 5).  [label_of] maps legacy state names (as probed by
    deterministic replay) to atomic propositions; it must produce
    propositions disjoint from the context's.  [max_iterations] defaults to
    the Theorem 2 bound [state_bound × 2^{|I|} + 1].

    Raises [Invalid_argument] when the legacy interface does not match the
    context ([I_legacy ⊈ O_context] or [O_legacy ⊈ I_context] would leave
    unconnected signals the probing step cannot exercise).

    [on_closure] and [on_check] intercept the two expensive pure stages of an
    iteration — building the chaotic closure of the current learned model and
    model checking the context ∥ closure product.  Both receive the stage's
    full input plus a [compute] thunk performing the actual work, and must
    return exactly what [compute] would (e.g. a memoized copy from an
    earlier, structurally identical call — {!Mechaml_engine.Cache} does
    this across campaign jobs).  Within one iteration [on_closure]'s
    [compute] does its work once: a later call returns the same closure.
    [on_check]'s input is the operand pair [(context, closure)], the
    closure being the one the same iteration's [on_closure] call returned,
    so a hook may also name the product by that closure.  The default
    hooks just run [compute].

    [observe] replaces the raw test-execution step (by default
    [Observation.observe] against [legacy]); {!Mechaml_legacy.Supervisor}'s
    [observe_hook] is the intended value.  An [Error reason] makes the run
    end with {!Degraded} instead of raising — the chaotic closure of the
    knowledge accumulated so far is still a safe abstraction (Theorem 1), so
    whatever it proves is reported rather than lost.

    [journal] appends every freshly executed observation to a crash-safe
    {!Journal} as it happens, plus an iteration-verdict record each time a
    counterexample is refuted and the loop moves on.  [resume] replays a
    journal into the starting model before the first iteration (replayed
    observations are not counted as tests), resumes iteration counting after
    the last recorded iteration instead of re-charging the budget for work
    already journalled, and — unless [journal] overrides it — keeps
    appending to the same file, so a run can be killed and resumed
    repeatedly.  [snapshot] additionally writes an atomic {!Knowledge_io}
    snapshot of the model whenever its knowledge has grown (and once more on
    completion).  [Invalid_argument] if the resume journal is unreadable or
    contradicts the driver's behaviour.

    [incremental] (default [true]) re-verifies incrementally across
    iterations: only the chaotic closure's dirty rows are rebuilt
    ({!Chaos.update}), and the checker's unbounded fixpoints are
    warm-started from the previous iteration's converged sets
    ({!Mechaml_mc.Eval.create_warm}) wherever a product state's pair
    and closure row carry over from the previous product — at any shard
    count and on a fleet alike.  The product itself is explored afresh
    every iteration and released (segments, spill files, fleet) when the
    iteration ends; only its converged sets carry over
    ({!Mechaml_mc.Eval.seeds}), with its stable pair keys, so one product
    is open at a time and a [mem_budget] bounds the whole run.  The index
    relating the previous product's pairs to the next one's is built only
    when a warm start reads it, so a one-check run pays for the keys
    alone.  Every stage is byte-identical to the
    from-scratch path — same closures, products, witnesses and verdicts —
    so the flag is purely a performance switch; [incremental_debug]
    additionally recomputes each stage from scratch and raises [Failure] on
    any divergence (for tests).

    [sharding] (default {!Mechaml_ts.Shard.config}[ ()], one unbudgeted
    shard) configures the one check path: the product is explored by
    {!Mechaml_ts.Shard} and checked by the {!Mechaml_mc.Eval} evaluator
    over it, and the counterexample's witness (plus any extra ones) is
    extracted from the same product — state names and edge labels are
    rebuilt only for the states and edges of a returned run.  Shard count,
    memory budget and spill dir change how the product is laid out; a
    [distribution] moves the level expansion and the fixpoints to a
    worker-process fleet ({!Mechaml_dist.Distshard},
    {!Mechaml_dist.Distsat}).  Verdicts, witnesses, trails, reuse
    counters and canonical reports are identical for every choice. *)

val pp_iteration : Format.formatter -> iteration -> unit

val pp_result : Format.formatter -> result -> unit
