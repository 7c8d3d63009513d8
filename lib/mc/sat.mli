(** Satisfaction sets for CCTL over the explicit state space of an
    automaton: the {!Eval} evaluator over the materialized backend.

    The backend keeps the automaton's CSR adjacency in both directions and
    runs each unbounded fixpoint as a single worklist; converged sets stay
    in memory.  The CCTL semantics (maximal runs, discrete-time bounds) and
    the operator table are {!Eval}'s, shared with {!Shardsat} and
    [Mechaml_dist.Distsat], which compute bit-for-bit the same sets.  This
    is the one backend with a warm-start entry point ({!create_warm}) and
    a [bool array] view ({!sat}) for witness extraction. *)

type env
(** Memoizes satisfaction sets per subformula for one automaton. *)

val create : Mechaml_ts.Automaton.t -> env

val create_warm :
  ?debug:bool ->
  prev:env ->
  old_of:int array ->
  dirty:Mechaml_ts.Automaton.state list ->
  Mechaml_ts.Automaton.t ->
  env
(** Warm-started environment for an automaton derived from [prev]'s by
    localized change — the synthesis loop's product sequence.  [old_of]
    maps each state to its counterpart in [prev]'s automaton ([-1] if none);
    [dirty] lists the states whose outgoing transitions may differ from
    their counterpart's (new states included).  On the {e exactness region}
    — states that cannot reach any dirty state — the counterpart's converged
    satisfaction bits are provably identical for every CTL subformula, so
    unbounded least fixpoints ([EF]/[AF]/[AG]/[AU]/[EU]) are seeded with the
    transferred bits and only explore outward from the seam.  [EG] and the
    bounded operators recompute cold.  Verdicts and sat sets are bit-for-bit
    those of a cold {!create}; [debug] recomputes every seeded fixpoint cold
    and raises [Failure] on any divergence.  Raises [Invalid_argument] when
    [old_of]/[dirty] are inconsistent with the automaton (wrong length,
    out-of-range state, or an unmapped state outside the dirty region). *)

val warm_stats : env -> (int * int) option
(** [(seeded, seedable)] counts of unbounded fixpoint computations in a
    warm environment — the seed hit rate is [seeded / seedable].  [None]
    for cold environments. *)

val automaton : env -> Mechaml_ts.Automaton.t

val sat : env -> Mechaml_logic.Ctl.t -> bool array
(** [sat env f] is the characteristic vector of [{ s | M, s ⊨ f }].  Raises
    [Invalid_argument] when the formula mentions a proposition absent from
    the automaton's universe — catching typos beats treating them as
    false. *)

val sat_vec : env -> Mechaml_logic.Ctl.t -> Mechaml_util.Bitvec.t
(** Same set as {!sat}, as the memoized bit vector the fixpoint engine
    computes internally — no [bool array] conversion.  Callers must not
    mutate the result. *)

val holds_initially : env -> Mechaml_logic.Ctl.t -> bool
(** All initial states satisfy the formula. *)

val failing_initial : env -> Mechaml_logic.Ctl.t -> Mechaml_ts.Automaton.state option
(** Some initial state violating the formula, if any. *)
