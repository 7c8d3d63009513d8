(** The CCTL evaluator: satisfaction sets for every operator over any state
    space representation that supplies a small {!backend}.

    Semantics is over {e maximal} runs: a run is maximal when it is infinite
    or ends in a blocking state (from which the special proposition [δ]
    holds).  Bounded operators count discrete time units, one per transition
    (Definition 1); a maximal run that ends before a bounded obligation's
    window closes fails eventualities ([AF]/[EF]/[AU]/[EU]) and trivially
    satisfies the remaining safety obligations ([AG]/[EG]).

    An environment ({!env}) owns everything that is independent of how the
    state space is stored: the per-subformula memo, the operator table,
    the bounded dynamic programs (as vector algebra over [agg]), warm-start
    seeding and the initial-state queries.  Satisfaction sets are global
    bit vectors indexed by state id.  The backends are {!Sat} (an
    automaton) and {!Shardsat} (a sharded product, its sweeps and
    fixpoints in process or, through [Mechaml_dist.Distsat], on a worker
    fleet).  All compute [agg] and [fixpoint] on the one {!Worklist}
    kernel, set up over one flat block, all shards, or each worker's
    adopted shards; every unbounded fixpoint is confluent, so all produce
    bit-for-bit the same sets. *)

module Ctl = Mechaml_logic.Ctl
module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec

(** The four unbounded fixpoints a backend computes. *)
type fix =
  | Ef  (** least: backward closure of [init] *)
  | Eu  (** least: backward closure of [init] through [guard] states *)
  | Eg  (** greatest: [init] minus states that are not blocking and have no
            successor left in the set *)
  | Au  (** least: [init] plus [guard] states, not blocking, whose every
            successor is in the set *)

(** What a state space representation must provide.  Every set passed in
    or returned is a global bit vector of length [states]; operations must
    not mutate their arguments and must return fresh vectors. *)
type backend = {
  states : int;
  initial : int list;  (** in the order {!failing_initial} reports them *)
  prop : string -> Bitvec.t;
      (** the states labelled with a proposition; raises [Invalid_argument]
          for a proposition outside the state space's universe *)
  blocking : Bitvec.t;  (** states without outgoing transitions; never mutated *)
  agg : forall:bool -> Bitvec.t -> Bitvec.t;
      (** [agg ~forall x] holds at a state when all ([forall]) or some of
          its successors (one per transition) are in [x]; vacuously true
          resp. false at blocking states *)
  fixpoint : fix -> init:Bitvec.t -> guard:Bitvec.t option -> Bitvec.t;
      (** the unbounded fixpoint from [init]; [guard] is the [f] of
          [E/A (f U g)], [Some] exactly for [Eu]/[Au] *)
  bank : Bitvec.t -> unit -> Bitvec.t;
      (** keep a converged set, e.g. in a memory-budgeted segment manager;
          the result reads it back *)
}

type env
(** Memoizes satisfaction sets per subformula for one state space. *)

val create : backend -> env

type seeds
(** An environment's converged satisfaction sets, copied out of its state
    space: all a later warm start reads, so the state space (its segments,
    its fleet) can be released once they are taken. *)

val seeds : env -> seeds
(** The sets computed so far, read back (from spill files too) while the
    environment's state space is still open. *)

val create_warm :
  ?debug:bool -> prev:seeds -> old_of:int array -> dirty:int list -> backend -> env
(** Warm-started environment for a state space derived from [prev]'s by
    localized change.  [old_of] maps each state to its counterpart in
    [prev]'s state space ([-1] if none); [dirty] lists the states whose
    outgoing transitions may differ from their counterpart's (new states
    included).  On the {e exactness region} — states that cannot reach any
    dirty state — the counterpart's converged bits are identical for every
    subformula, so the least fixpoints ([EF]/[AF]/[AG]/[AU]/[EU]) join
    those bits into their initial set and only explore outward from the
    seam.  [EG] and the bounded operators recompute cold.  [debug]
    recomputes every seeded fixpoint cold and raises [Failure] on any bit
    difference.  Raises [Invalid_argument] when [old_of]/[dirty] are
    inconsistent with the state space. *)

val warm_stats : env -> (int * int) option
(** [(seeded, seedable)] counts of unbounded fixpoint computations in a
    warm environment — the seed hit rate is [seeded / seedable]; [None]
    for cold ones. *)

val sat_vec : env -> Ctl.t -> Bitvec.t
(** The characteristic vector of [{ s | s ⊨ f }], memoized.  Callers must
    not mutate the result.  Raises whatever the backend raises, e.g.
    [Invalid_argument] for an unknown proposition. *)

val holds_initially : env -> Ctl.t -> bool
(** All initial states satisfy the formula. *)

val failing_initial : env -> Ctl.t -> int option
(** The first initial state violating the formula, if any. *)

(** {1 Helpers shared by the backends} *)

val prop_of_labels :
  where:string -> Mechaml_ts.Universe.t -> states:int -> (int -> Bitset.t) -> string -> Bitvec.t
(** The states whose label contains the proposition; raises
    [Invalid_argument] naming [where] when the universe lacks it. *)
