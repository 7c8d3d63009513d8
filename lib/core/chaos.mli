(** The chaotic automaton and chaotic closure (Definitions 8–9, Figures 3–4).

    The chaotic automaton is the maximal behaviour over given signal sets: a
    state [s_∀] that accepts every interaction and a state [s_δ] that blocks
    every interaction, both initial.  The chaotic closure [chaos(M)] of an
    incomplete automaton doubles every known state into an [(s,0)] copy (no
    further extension assumed — refusals possible) and an [(s,1)] copy (every
    extension assumed — all not-explicitly-excluded interactions lead to
    chaos).  By Theorem 1, [chaos(M)] is a safe abstraction ([M_r ⊑
    chaos(M)]) of any component [M_r] that [M] observation-conforms to.

    Deviation from the letter of Definition 9, justified by the paper's
    determinism assumption (Section 4.3): interactions [(A, B)] for which the
    response to [A] is already known (with a different [B]), or whose input
    set [A] is recorded as refused, do not lead to chaos — an
    input-deterministic component cannot exhibit them.  This is what makes
    every failed test strictly shrink the unknown region (Theorem 2).

    A closure stores what is known and what is excluded, not the
    interactions that lead to chaos: the chaotic rows of the open copies and
    of [s_∀] are {!Mechaml_ts.Automaton.escape}s, which the join kernel
    ({!Mechaml_ts.Compose.moves}) reads directly.  {!materialize} expands
    them where explicit rows are wanted (figures, refinement checks). *)

val chaos_prop : string
(** The fresh proposition [p'] labelling the chaotic states (Section 2.7).
    Formulas must be rewritten with {!Mechaml_logic.Ctl.weaken_for_chaos}
    before checking an abstraction that embeds chaos states. *)

val s_all : string
(** State name of [s_∀]. *)

val s_delta : string
(** State name of [s_δ]. *)

val closed_suffix : string
(** Suffix distinguishing the [(s,0)] copies; the [(s,1)] copies keep the
    original state name. *)

val max_alphabet : int
(** Largest [|I| + |O|] (currently 30) that {!chaotic_automaton} and
    {!materialize} accept: they write out [℘(I) × ℘(O)] transitions per
    chaotic row, so the width is capped to bound that blow-up (the
    {!Mechaml_util.Bitset.all_subsets} guard).  {!closure} and the
    incremental handle enumerate nothing and accept any alphabet whose
    [|I| + |O|] fits {!Mechaml_util.Bitset.max_width}. *)

val chaotic_automaton :
  name:string -> inputs:string list -> outputs:string list -> Mechaml_ts.Automaton.t
(** Definition 8 / Fig. 3, with explicit rows.  Raises [Invalid_argument]
    when [|I| + |O| > max_alphabet]. *)

val materialize : Mechaml_ts.Automaton.t -> Mechaml_ts.Automaton.t
(** The same automaton with every escape written out as explicit
    transitions after the state's own, in the escape's order — for a
    closure, Definition 9's rows with every chaotic interaction listed.  An
    automaton without escapes is returned as is.  Raises
    [Invalid_argument] when [|I| + |O| > max_alphabet]. *)

val closure :
  ?label_of:(string -> string list) ->
  ?extra_props:string list ->
  Incomplete.t ->
  Mechaml_ts.Automaton.t
(** [chaos(M)] (Definition 9 with the determinism sharpening above).
    [label_of] assigns atomic propositions to each known state name (default:
    none); the chaotic states are labelled with {!chaos_prop} only.
    [extra_props] declares propositions in the universe even when no learned
    state carries them yet — the synthesis loop seeds it with the property's
    legacy-side propositions so that checking is well-defined from iteration
    0 on.  The chaotic rows are escapes (see above).  Raises
    [Invalid_argument] when a state is named like a chaos state or when
    [|I| + |O|] exceeds {!Mechaml_util.Bitset.max_width}. *)

type origin =
  | Core of string  (** copy of a known state (either copy), original name *)
  | Chaotic        (** [s_∀] or [s_δ] *)

val origin : string -> origin
(** Classify a closure state name. *)

(** {2 Incremental closure}

    The synthesis loop needs [chaos(M)] every iteration even though one
    iteration changes only a handful of facts.  Every closure is built
    through an {!inc} handle: its index (state positions, known edges and
    answered input patterns per state, propositions) is extended by the
    model's append-only delta, and only the rows of the copies of states
    that gained a fact are rebuilt: their known edges and their escapes'
    excluded inputs.  A fresh closure extends an empty index and builds
    every row; an {!update} carries the other rows over.  Either way the
    result is equal ({!Mechaml_ts.Automaton.equal}) to a fresh {!closure}
    (state numbering, adjacency order, escapes, labels), which keeps
    witnesses, products and therefore verdicts byte-for-byte independent of
    incremental mode. *)

type inc
(** Mutable incremental-closure handle for one growing incomplete model. *)

val inc_closure :
  ?label_of:(string -> string list) -> ?extra_props:string list -> Incomplete.t -> inc
(** The closure of the model ({!closure} is [auto (inc_closure m)]) in a
    handle for later {!update}s. *)

val update : ?debug:bool -> inc -> Incomplete.t -> unit
(** Patch the handle's closure to match the grown model.  The model must be
    the same one the handle was built from, extended append-only (as
    {!Incomplete.add_transition}/[add_refusal] do — the loop's only mutation
    path); the delta is recovered from element counts.  With [debug] a fresh
    closure is also built and compared with {!Mechaml_ts.Automaton.equal}
    — [Failure] on any divergence.  Raises like {!closure} on invalid new
    state names. *)

val adopt :
  ?label_of:(string -> string list) ->
  ?extra_props:string list ->
  prev:inc option ->
  Incomplete.t ->
  Mechaml_ts.Automaton.t ->
  inc
(** A handle around an existing closure automaton of the given model — the
    memo-cache path, where a hook returned the automaton without running
    the construction.  With [prev] (the handle for the model before this
    iteration, which is extended in place and returned) only the index is
    extended by the delta, so a later {!update} patches exactly the rows it
    would have after an update in place; without it a new index is built.
    [label_of]/[extra_props] are only consulted when [prev] is [None]. *)

val auto : inc -> Mechaml_ts.Automaton.t
(** The handle's current closure. *)

val delta_edges : inc -> int
(** Row entries the last {!update} rebuilt: the explicit transitions of its
    dirty rows plus the excluded input patterns of its dirty open copies'
    escapes (0 after a fresh build, an {!adopt}, or an empty delta). *)
