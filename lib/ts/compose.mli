(** Parallel composition [M ∥ M'] (Definition 3): synchronous execution with
    synchronous communication.

    A joint transition [((s₁,s₁'), A'', B'', (s₂,s₂'))] exists iff
    [(s₁,A,B,s₂) ∈ T] and [(s₁',A',B',s₂') ∈ T'] with [A ∩ O' = B'] and
    [A' ∩ O = B]; then [A'' = A ∪ A'] and [B'' = B ∪ B'].  Only state pairs
    reachable from [Q × Q'] are kept, and labels are unioned.  The product
    retains provenance so runs of the composition can be projected back onto
    either operand (needed to turn a model-checking counterexample into a test
    of the legacy component, Section 4.2). *)

type product = private {
  auto : Automaton.t;
  left : Automaton.t;
  right : Automaton.t;
  pairs : (Automaton.state * Automaton.state) array;
      (** product state → (left state, right state) *)
}

val parallel : Automaton.t -> Automaton.t -> product
(** Every reachable pair is one state, numbered in breadth-first discovery
    order exactly as {!Shard.explore} numbers it, and named ["l,r"]; when
    operand names containing [','] make two names collide, both states
    stay and {!Automaton.state_index} finds the first.  The right operand
    may carry escapes ({!join}); the product has none.  Raises
    [Invalid_argument] when the operands are not composable ([I ∩ I' ≠ ∅]
    or [O ∩ O' ≠ ∅]), their proposition universes overlap, or the left
    operand has escapes. *)

val record :
  start_us:float option ->
  left:Automaton.t ->
  right:Automaton.t ->
  states:int ->
  transitions:(unit -> int) ->
  unit
(** Report one finished product of [left] and [right], whichever explorer
    built it: a [ts.compose] trace span from [start_us] when tracing was on, and the
    [ts_product_states] / [ts_product_transitions] histograms when metrics
    are on ([transitions] is only called then). *)

val parallel_many : Automaton.t list -> Automaton.t
(** Left fold of {!parallel} over two or more automata, discarding
    provenance. *)

val project_left : product -> Run.t -> Run.t
(** Map a run of the product onto the left operand: states via provenance,
    interactions restricted to the left universes.  The result is a genuine
    run of the left operand (composition only combines real transitions). *)

val project_right : product -> Run.t -> Run.t

val project_pairs :
  [ `Left | `Right ] ->
  left:Automaton.t ->
  right:Automaton.t ->
  pair:(Automaton.state -> Automaton.state * Automaton.state) ->
  Run.t ->
  Run.t
(** {!project_left} / {!project_right} for a run of any product of [left]
    and [right] laid out as {!parallel}'s (the left operand's signals, then
    the right's), without materializing it: [pair] maps a product state to
    its operand states, e.g. [Shard.pair]. *)

val left_state : product -> Automaton.state -> Automaton.state

val right_state : product -> Automaton.state -> Automaton.state

type join
(** The joint-move kernel of one operand pair: what {!parallel} and the
    sharded and distributed explorers call to expand a state pair.  Built
    once per pair; read-only afterwards, so one kernel may be shared across
    domains. *)

val join : Automaton.t -> Automaton.t -> join
(** [join left right] precomputes, per interned interaction id, each
    transition label's shared-signal footprint (the signals Definition 3's
    communication constraint compares), maps every left id to the single
    right id with the same footprint, and shifts every right label past the
    left operand's universes.  The right operand may carry escapes
    ({!Automaton.escape}); the left may not.  Raises [Invalid_argument]
    when the operands are not composable or the left one has escapes. *)

val moves :
  join ->
  Automaton.state ->
  Automaton.state ->
  (Mechaml_util.Bitset.t -> Mechaml_util.Bitset.t -> Automaton.state -> Automaton.state -> unit) ->
  int
(** [moves j s s' emit] calls [emit input output l_dst r_dst] once per
    joint move from the pair [(s, s')] — the combined interaction label
    (left signals first, right signals shifted past them, as in
    {!parallel}'s universes) and the two destinations — and returns the
    number of moves.  Moves come in left adjacency order outer; per left
    transition, its explicit right partners in right adjacency order, then
    its partners in the escape of [s'] in the escape's order — the order of
    a nested scan over both lists once the escape is expanded.  A left
    transition finds its explicit partners by binary search for its partner
    id in the right row of the sorted CSR view ({!Automaton.Csr.inter}); a
    footprint that several right ids share (open compositions) and operands
    whose combined signals exceed {!Mechaml_util.Bitset.max_width} scan the
    right row instead.  Its escape partners are the footprint's connected
    right signals extended by each subset of the free right signals, minus
    excluded inputs: a single membership test when every right signal is
    connected.  When the combined signals exceed one word, a move whose
    combined label does not fit raises [Invalid_argument]. *)
