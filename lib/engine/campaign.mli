(** Verification campaigns: batches of synthesis-loop jobs over a declarative
    matrix (scenario variant × property × counterexample strategy × legacy
    fault variant), executed through {!Mechaml_core.Loop} with a worker pool
    ({!Pool}), cross-job memoization ({!Cache}), per-job wall-clock timeouts
    and bounded retry for flaky legacy drivers ({!Mechaml_legacy.Flaky}).

    Verdicts are independent of the worker count and of cache sharing: every
    job builds its own black box (fault-injection wrappers keep their mutable
    counters job-local) and memoized stages are pure, so a [jobs:4] campaign
    reports exactly the verdicts of the sequential reference run.  Only the
    measured fields (durations, per-job cache counters) may differ — compare
    runs with {!Report.canonical}, which omits them. *)

type spec = {
  id : string;  (** unique within a campaign *)
  family : string;
      (** scenario family name; identifies the [label_of] labelling in cache
          keys, so it must be a bijection: one family, one labelling *)
  context : Mechaml_ts.Automaton.t;
  property : Mechaml_logic.Ctl.t;
  strategy : Mechaml_mc.Witness.strategy;
  make_box : unit -> Mechaml_legacy.Blackbox.t;
      (** called once per job execution; retry attempts share the instance,
          so a stateful fault wrapper progresses across attempts *)
  label_of : string -> string list;
  timeout : float option;  (** wall-clock seconds for the whole job *)
  retries : int;  (** extra attempts after a crashed one (not after timeout) *)
  max_iterations : int option;
  inject : string option;
      (** fault profile ({!Mechaml_legacy.Faults.of_string}) wrapped around
          the box — implies supervised execution *)
  seed : int;  (** fault schedules and supervisor jitter derive from it *)
  policy : Mechaml_legacy.Supervisor.policy option;
      (** supervision policy; [None] with [inject] set means
          {!Mechaml_legacy.Supervisor.default_policy} *)
}

val job :
  id:string ->
  family:string ->
  context:Mechaml_ts.Automaton.t ->
  property:Mechaml_logic.Ctl.t ->
  ?strategy:Mechaml_mc.Witness.strategy ->
  ?label_of:(string -> string list) ->
  ?timeout:float ->
  ?retries:int ->
  ?max_iterations:int ->
  ?inject:string ->
  ?seed:int ->
  ?policy:Mechaml_legacy.Supervisor.policy ->
  (unit -> Mechaml_legacy.Blackbox.t) ->
  spec
(** Defaults: BFS strategy, no labels, no timeout, no retries, the Theorem 2
    iteration bound, no fault injection, seed 0, default supervision policy
    (supervision is only active when [inject] or [policy] is given). *)

type verdict =
  | Proved
  | Real_deadlock of { confirmed_by_test : bool }
  | Real_property of { confirmed_by_test : bool }
  | Exhausted
  | Degraded of { reason : string }
      (** the supervised driver gave up (circuit breaker / unanswerable
          query); the loop reported the chaotic closure of the knowledge
          accumulated so far instead of crashing *)
  | Timed_out  (** the wall-clock budget elapsed (checked between stages) *)
  | Failed of string
      (** every attempt raised; the payload is the last exception — e.g. the
          replay-divergence guardrail firing on a nondeterministic driver *)

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
  iterations : int;  (** 0 for [Timed_out]/[Failed] *)
  states_learned : int;
  knowledge : int;  (** learned facts [|T| + |T̄|] of the final model *)
  tests_executed : int;
  test_steps : int;
  attempts : int;
  duration_s : float;
  closure_seconds : float;  (** wall-clock spent in the closure stage *)
  check_seconds : float;  (** wall-clock spent composing and model checking *)
  test_seconds : float;  (** wall-clock spent querying the driver *)
  max_closure_states : int;
      (** largest chaotic-closure automaton built by any iteration — a
          structural fact, deterministic across workers/caching/tracing *)
  max_product_states : int;  (** largest context ∥ closure product likewise *)
  closure_delta_edges : int;
      (** row entries (explicit transitions and excluded input patterns)
          rebuilt in the chaotic closure across incremental updates
          ({!Mechaml_core.Loop.result.closure_delta_edges}); 0 when the job
          ran from scratch *)
  product_states_reused : int;
      (** always 0: every check explores its product afresh.  Kept only
          because [perfbench/synth.ml] reads it; no report prints it *)
  cache : cache_counters;
      (** this job's lookups; under a shared cache and [jobs > 1] the
          hit/miss split depends on sibling scheduling *)
  fault : string option;  (** the injected fault profile, if any *)
  supervision : Mechaml_legacy.Supervisor.stats option;
      (** retry/vote/breaker accounting when the job ran supervised;
          deterministic per seed, independent of the worker count *)
}

val verdict_string : verdict -> string

val strategy_string : Mechaml_mc.Witness.strategy -> string

val run_spec :
  ?cache:Cache.t -> ?incremental:bool -> ?incremental_debug:bool ->
  ?sharding:Mechaml_ts.Shard.config -> spec -> outcome
(** Execute one job: build the box, run the loop (memoized through [cache]
    when given), enforcing the timeout between stages and retrying crashed
    attempts up to [retries] times.  Never raises: crashes and timeouts
    become verdicts.  [incremental] (default [true]) selects the loop's
    delta closures; verdicts and canonical reports are identical either way
    ({!Mechaml_core.Loop.run}), so memo-cache keys and hits are unaffected.
    [incremental_debug] also builds every closure from scratch and fails on
    divergence.  [sharding] selects the loop's
    partitioned, out-of-core check pipeline ({!Mechaml_core.Loop.run});
    verdicts and canonical reports are byte-identical to the default path,
    so sharded and materialized checks share memo entries: a check is keyed
    by the context's {!Mechaml_ts.Automaton.digest} and the closure key of
    the same iteration, never by the product. *)

val run :
  ?jobs:int -> ?cache:Cache.t -> ?memo:bool -> ?incremental:bool ->
  ?incremental_debug:bool -> ?sharding:Mechaml_ts.Shard.config -> spec list -> outcome list
(** Run a campaign on [jobs] worker domains (default 1; [1] executes
    sequentially in list order).  All jobs share one cache — [cache] to
    reuse a warm one across campaigns, [memo:false] to disable memoization
    entirely.  Outcomes keep the spec order.  Raises [Invalid_argument] on
    duplicate job ids. *)

val bundled : ?tiny:bool -> unit -> spec list
(** The bundled scenario matrix over the RailCab, stop-and-wait protocol,
    watchdog and combination-lock families: correct and faulty legacy
    variants, both counterexample strategies, the pattern property next to
    plain deadlock freedom, plus fault-injected railcab drivers exercising
    the retry path, a supervised chaos job (crashes retried, lies outvoted)
    and a bricked driver that degrades through the circuit breaker.  [tiny]
    (default false) selects a four-job smoke matrix for CI. *)
