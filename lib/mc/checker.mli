(** The model-checking front end used by the iterative behavior synthesis
    (Section 4.1): check [M ⊨ φ ∧ ¬δ] and extract a counterexample run on
    failure. *)

type outcome =
  | Holds
  | Violated of {
      formula : Mechaml_logic.Ctl.t;  (** the (sub)property that failed *)
      witness : Mechaml_ts.Run.t;     (** counterexample run from an initial state *)
      explanation : string;
      complete : bool;
          (** the witness run alone proves the violation; [false] when the
              evidence also relies on the final state blocking or on an
              obligation the extractor could not unfold (see
              {!Witness.t}) *)
    }

val check :
  ?strategy:Witness.strategy -> Mechaml_ts.Automaton.t -> Mechaml_logic.Ctl.t -> outcome
(** Every initial state must satisfy the formula.  Default strategy is
    {!Witness.Bfs_shortest}. *)

val check_conjunction :
  ?strategy:Witness.strategy -> Mechaml_ts.Automaton.t -> Mechaml_logic.Ctl.t list -> outcome
(** Check properties in order; report the first violation.  Cheaper than
    checking the conjunction because satisfaction sets are shared through one
    environment and witnesses stay per-property. *)

val check_space :
  ?strategy:Witness.strategy -> Witness.space -> Mechaml_logic.Ctl.t list -> outcome
(** {!check_conjunction} on any checked state space — the synthesis loop
    passes its sharded product with an environment's sets.  The automaton entry points are this over {!Sat.space}. *)

val check_with_deadlock_freedom :
  ?strategy:Witness.strategy -> Mechaml_ts.Automaton.t -> Mechaml_logic.Ctl.t -> outcome
(** [φ ∧ ¬δ], the combined obligation of equation (7): the property itself
    plus deadlock freedom ([AG ¬δ]). *)

val holds : Mechaml_ts.Automaton.t -> Mechaml_logic.Ctl.t -> bool
(** Verdict only. *)

val more_witnesses :
  ?limit:int -> Witness.space -> Mechaml_logic.Ctl.t -> Mechaml_ts.Run.t list
(** Up to [limit] (default 3) counterexample runs with pairwise distinct
    final states, nearest first — the "several counterexamples per check"
    improvement the paper's conclusion proposes.  Available for violations
    whose negation is a reachability of a state predicate (safety
    invariants, deadlock freedom); other shapes and satisfied formulas yield
    [[]]. *)
