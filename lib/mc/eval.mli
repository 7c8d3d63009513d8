(** The CCTL evaluator: satisfaction sets for every operator over any state
    space representation that supplies a small {!BACKEND}.

    Semantics is over {e maximal} runs: a run is maximal when it is infinite
    or ends in a blocking state (from which the special proposition [δ]
    holds).  Bounded operators count discrete time units, one per transition
    (Definition 1); a maximal run that ends before a bounded obligation's
    window closes fails eventualities ([AF]/[EF]/[AU]/[EU]) and trivially
    satisfies the remaining safety obligations ([AG]/[EG]).

    {!Make} owns everything that is independent of how the state space is
    stored: the per-subformula memo, the operator table, the bounded
    dynamic programs (as vector algebra over {!BACKEND.agg}), warm-start
    seeding and the initial-state queries.  Satisfaction sets are global
    bit vectors indexed by state id.  The backends are {!Sat} (the
    materialized automaton), {!Shardsat} (an in-process sharded product)
    and [Mechaml_dist.Distsat] (a product spread over worker processes).
    All three compute {!BACKEND.agg} and {!BACKEND.fixpoint} on the one
    {!Worklist} kernel, set up over one flat block, all shards, or each
    worker's adopted shards; every unbounded fixpoint is confluent, so all
    three produce bit-for-bit the same sets. *)

module Ctl = Mechaml_logic.Ctl
module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment

(** The four unbounded fixpoints a backend computes. *)
type fix =
  | Ef  (** least: backward closure of [init] *)
  | Eu  (** least: backward closure of [init] through [guard] states *)
  | Eg  (** greatest: [init] minus states that are not blocking and have no
            successor left in the set *)
  | Au  (** least: [init] plus [guard] states, not blocking, whose every
            successor is in the set *)

(** What a state space representation must provide.  Every set passed in
    or returned is a global bit vector of length [num_states]; operations
    must not mutate their arguments and must return fresh vectors. *)
module type BACKEND = sig
  type t

  type slot
  (** A handle on a banked (converged) satisfaction set. *)

  val num_states : t -> int

  val initial : t -> int list
  (** Initial states, in the order {!Make.failing_initial} reports them. *)

  val prop : t -> string -> Bitvec.t
  (** The states labelled with a proposition; raises [Invalid_argument]
      for a proposition outside the state space's universe. *)

  val blocking : t -> Bitvec.t
  (** States without outgoing transitions.  May be shared; never mutated. *)

  val agg : t -> forall:bool -> Bitvec.t -> Bitvec.t
  (** [agg t ~forall x] holds at a state when all ([forall]) or some of its
      successors (one per transition) are in [x]; vacuously true resp.
      false at blocking states. *)

  val fixpoint : t -> fix -> init:Bitvec.t -> guard:Bitvec.t option -> Bitvec.t
  (** The unbounded fixpoint from [init]; [guard] is the [f] of
      [E/A (f U g)] and is always [Some] for [Eu]/[Au], [None] otherwise. *)

  val bank : t -> Bitvec.t -> slot
  (** Keep a converged set for later {!fetch}es, e.g. in a memory-budgeted
      segment manager. *)

  val fetch : t -> slot -> Bitvec.t
end

module Make (B : BACKEND) : sig
  type env
  (** Memoizes satisfaction sets per subformula for one state space. *)

  val create : B.t -> env

  val create_warm :
    ?debug:bool -> prev:env -> old_of:int array -> dirty:int list -> B.t -> env
  (** Warm-started environment for a state space derived from [prev]'s by
      localized change.  [old_of] maps each state to its counterpart in
      [prev] ([-1] if none); [dirty] lists the states whose outgoing
      transitions may differ from their counterpart's (new states
      included).  On the {e exactness region} — states that cannot reach
      any dirty state — the counterpart's converged bits are identical for
      every subformula, so the least fixpoints ([EF]/[AF]/[AG]/[AU]/[EU])
      join those bits into their initial set and only explore outward from
      the seam.  [EG] and the bounded operators recompute cold.  [debug]
      recomputes every seeded fixpoint cold and raises [Failure] on any
      bit difference.  Raises [Invalid_argument] when [old_of]/[dirty] are
      inconsistent with the state space. *)

  val warm_stats : env -> (int * int) option
  (** [(seeded, seedable)] counts of unbounded fixpoint computations in a
      warm environment; [None] for cold ones. *)

  val backend : env -> B.t

  val sat_vec : env -> Ctl.t -> Bitvec.t
  (** The characteristic vector of [{ s | s ⊨ f }], memoized.  Callers must
      not mutate the result. *)

  val holds_initially : env -> Ctl.t -> bool
  (** All initial states satisfy the formula. *)

  val failing_initial : env -> Ctl.t -> int option
  (** The first initial state violating the formula, if any. *)
end

(** {1 Helpers shared by the backends} *)

val prop_of_labels : where:string -> Mechaml_ts.Universe.t -> Bitset.t array -> string -> Bitvec.t
(** The states whose label (indexed by state) contains the proposition;
    raises [Invalid_argument] naming [where] when the universe lacks it. *)

val bank_in : Segment.t -> Bitvec.t -> Segment.slot
(** Register a converged set in a segment manager, under a process-unique
    name, sharing the manager's budget and spill tier. *)

val fetch_from : Segment.t -> Segment.slot -> Bitvec.t
(** Read back a set banked by {!bank_in}; raises {!Segment.Spill_error}
    on a damaged spill file. *)
