(** The finite state transition model of Definition 1, extended with the
    labelling function of Section 2.1.

    An automaton is [M = (S, I, O, T, L, Q)]: a finite state set [S], input
    signals [I], output signals [O], transitions
    [T ⊆ S × ℘(I) × ℘(O) × S], a labelling [L : S → ℘(P)] over atomic
    propositions [P], and initial states [Q].  Each transition takes exactly
    one discrete time unit. *)

type state = int

type trans = {
  input : Mechaml_util.Bitset.t;  (** [A ⊆ I], consumed this time unit *)
  output : Mechaml_util.Bitset.t; (** [B ⊆ O], produced this time unit *)
  dst : state;
}

type escape = {
  excluded : int array;
      (** input patterns ({!Mechaml_util.Bitset.to_int} of [A]) the escape
          does not cover, strictly ascending *)
  dsts : state list;
}
(** A symbolic row: every interaction [(A, B) ∈ ℘(I) × ℘(O)] whose input
    pattern is not [excluded], to each of [dsts].  Its transitions follow
    the state's explicit ones, inputs ascending outer, outputs ascending
    inner, destinations in list order — the rows of Definition 8's chaotic
    state, minus what an incomplete model already knows or refuses
    (Definition 9), without enumerating them. *)

type index
(** Packed acceleration structure: a state-name lookup table (built — and
    duplicate names validated — eagerly at construction) plus a CSR
    (compressed sparse row) copy of the transition relation with per-state
    segments stably sorted by interned interaction id, derived on first
    indexed access so construction-only intermediates never pay for it.
    Purely derived data — it never disagrees with [trans]; the on-demand
    build is safe to race across domains. *)

type t = private {
  name : string;
  inputs : Universe.t;
  outputs : Universe.t;
  props : Universe.t;
  state_names : string array;
  labels : Mechaml_util.Bitset.t array; (** [L], indexed by state *)
  trans : trans list array;             (** outgoing explicit transitions per state *)
  escapes : escape option array;
      (** per state, the symbolic row after the explicit one; [[||]] when no
          state has one *)
  initial : state list;
  index : index;
}

val num_states : t -> int

val num_transitions : t -> int
(** Explicit transitions plus the interactions × destinations every escape
    covers — counted, not enumerated (saturating at [max_int]). *)

val equal : t -> t -> bool
(** Same content: name, universes (in order), state names, labels,
    adjacency lists, escapes and initial states. *)

val escape : t -> state -> escape option

val has_escapes : t -> bool

val require_explicit : string -> t -> unit
(** [require_explicit fn m] raises [Invalid_argument] (naming [fn]) when [m]
    has escapes: the guard of every consumer that reads only explicit rows
    ({!restrict}, simulation, refinement, DOT and text output, the
    materialized checker). *)

val escapes_input : escape -> int -> bool
(** [escapes_input e a]: input pattern [a] is not excluded by [e]. *)

val digest : t -> string
(** Hex MD5 of the automaton's content: name, the names of its three
    universes, state names, labels, adjacency lists and initial states.
    The derived {!index} is excluded, so forcing it (through {!Csr} or a
    model checker) never changes the digest, and physical sharing is
    ignored, so structurally equal automata digest equally however they
    were built.  Computed once per value and memoized (safe to race across
    domains); the campaign memo cache keys checks by it. *)

val state_name : t -> state -> string

val state_index : t -> string -> state
(** Raises [Invalid_argument] on unknown state names. *)

val state_index_opt : t -> string -> state option

val transitions_from : t -> state -> trans list
(** The explicit transitions only; see {!escape}. *)

val label : t -> state -> Mechaml_util.Bitset.t

val has_prop : t -> state -> string -> bool
(** [has_prop m s p] is [true] iff proposition [p] is in the universe and in
    [L(s)]. *)

val is_blocking : t -> state -> bool
(** No outgoing transition at all, explicit or escaping: the state can only
    start deadlock runs. *)

val accepts : t -> state -> Mechaml_util.Bitset.t -> Mechaml_util.Bitset.t -> bool
(** [accepts m s a b] is [true] iff some transition [(s, a, b, _)] exists,
    explicit or escaping. *)

val successors : t -> state -> Mechaml_util.Bitset.t -> Mechaml_util.Bitset.t -> state list
(** Destinations of all [(s, a, b, _)] transitions: the explicit ones in
    adjacency order, then the escape's. *)

val deterministic : t -> bool
(** The paper's notion: at most one successor per [(s, A, B)]. *)

val input_deterministic : t -> bool
(** The stronger notion required of legacy implementations: for every state
    and input set [A], at most one pair [(B, s')].  This is what makes the
    observed behaviour of a test replayable (Section 4.3). *)

val composable : t -> t -> bool
(** [I ∩ I' = ∅ ∧ O ∩ O' = ∅] (Definition 3). *)

val orthogonal : t -> t -> bool
(** Additionally [I ∩ O' = ∅ ∧ O ∩ I' = ∅]. *)

val rename : t -> string -> t

val relabel : t -> props:Universe.t -> (state -> Mechaml_util.Bitset.t) -> t
(** Replace the proposition universe and labelling wholesale. *)

val restrict : t -> inputs:Universe.t -> outputs:Universe.t -> props:Universe.t -> t
(** Project every transition label and state label onto sub-universes,
    dropping hidden signals ([M|_{I'/O'/L'}] as used by Lemma 3).  Duplicate
    transitions arising from the projection are merged.  Raises
    [Invalid_argument] on an automaton with escapes. *)

val map_states : t -> f:(state -> string) -> t
(** Rename states. *)

val map_signals :
  t -> inputs:(string -> string) -> outputs:(string -> string) -> t
(** Rename signals (the wiring operation behind
    {!Mechaml_muml.Assembly}): transition bitsets are untouched because
    indices are preserved.  Raises [Invalid_argument] if a renaming
    introduces duplicates within a universe. *)

val of_packed :
  ?assume_unique_names:bool ->
  name:string ->
  inputs:Universe.t ->
  outputs:Universe.t ->
  props:Universe.t ->
  state_names:string array ->
  labels:Mechaml_util.Bitset.t array ->
  trans:trans list array ->
  ?escapes:escape option array ->
  initial:state list ->
  unit ->
  t
(** Raw constructor for callers that already hold index-space data
    ({!Compose}, {!Mechaml_core.Chaos}), bypassing the name-interning
    {!Builder} round trip.  All bitsets must already live in the given
    universes; adjacency lists are taken as-is (their order is the
    enumeration order of {!transitions_from}).  [escapes] (default: none)
    is empty or one entry per state.  Raises [Invalid_argument] on
    mismatched array lengths, out-of-range states (initial, destinations,
    escape destinations), excluded patterns that are negative, outside
    [℘(I)] or not strictly ascending, an empty initial list, or duplicate
    state names.  [assume_unique_names] skips the duplicate check (and
    defers building the name lookup table to first use): names may then
    repeat, and {!state_index} finds the first state of a name
    ({!Compose.parallel} relies on this when operand names contain
    [',']). *)

val interaction_id : t -> Mechaml_util.Bitset.t -> Mechaml_util.Bitset.t -> int option
(** Interned id of the interaction [(A, B)], if any explicit transition of
    the automaton carries that exact label.  Ids are dense in
    [0, num_interactions). *)

val num_interactions : t -> int

val interaction_io : t -> int -> Mechaml_util.Bitset.t * Mechaml_util.Bitset.t
(** Inverse of {!interaction_id}. *)

(** Read-only views of the packed explicit transition relation, for hot loops that
    want arrays instead of lists ({!Mechaml_mc.Sat}'s fixpoints, the
    {!Compose} join kernel).  Transition [k] of state [s] lives at flat
    offsets [row.(s) <= k < row.(s+1)]; segments are stably sorted by
    interaction id, so equal-labelled transitions keep adjacency-list order.
    The label of transition [k] is [interaction_io m (inter m).(k)].
    Callers must not mutate the returned arrays. *)
module Csr : sig
  val row : t -> int array

  val dst : t -> int array

  val inter : t -> int array

  val adj_inter : t -> int array
  (** Interaction id per transition in {e adjacency-list} order (the order
      {!transitions_from} enumerates), indexed by [row s + position]. The
      other flat arrays are per-segment sorted by id; this one is not. *)
end

(** Imperative construction API.  States are created on first mention, so
    models read like their textual definitions. *)
module Builder : sig
  type automaton := t

  type t

  val create :
    name:string ->
    inputs:string list ->
    outputs:string list ->
    ?props:string list ->
    unit ->
    t

  val add_state : t -> ?props:string list -> string -> state
  (** Declares a state (idempotent); [props] accumulate across calls. *)

  val add_trans :
    t -> src:string -> ?inputs:string list -> ?outputs:string list -> dst:string -> unit -> unit
  (** Adds [(src, inputs, outputs, dst)]; unseen states are created with empty
      label. *)

  val set_initial : t -> string list -> unit

  val build : t -> automaton
  (** Raises [Invalid_argument] when no initial state was declared. *)
end

val pp : Format.formatter -> t -> unit
(** Multi-line textual rendering (states, labels, transitions). *)

val pp_io : t -> Format.formatter -> Mechaml_util.Bitset.t * Mechaml_util.Bitset.t -> unit
(** Print one [A/B] interaction using the automaton's signal names. *)
