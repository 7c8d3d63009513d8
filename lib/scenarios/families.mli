(** Parametric scenario families for the quantitative experiments.

    The {e combination lock} family makes the paper's headline claim
    measurable: a legacy component with [n] internal states of which a given
    context can only ever exercise a prefix.  The paper's loop learns just
    that prefix and still proves the integration correct; full-model learning
    (L*, black box checking) pays for all [n] states plus an exhaustive
    equivalence check (EXP-T1/T2). *)

val lock_secret : n:int -> string list
(** The lock's secret: a reproducible pseudo-random word over [a]/[b] of
    length [n] (seeded by [n]). *)

val lock_legacy : n:int -> Mechaml_ts.Automaton.t
(** A combination lock with [n + 1] states: feeding the secret's next symbol
    advances, a wrong symbol resets, a silent period idles; the final symbol
    emits [open] and enters the [unlocked] state, from which any input
    relocks.  Complete (never refuses), input-deterministic. *)

val lock_box : n:int -> Mechaml_legacy.Blackbox.t

val lock_context : n:int -> depth:int -> Mechaml_ts.Automaton.t
(** A context that exercises only the first [depth < n] secret symbols: it
    repeatedly plays that prefix and then deliberately resets with a wrong
    symbol.  It could consume [open] but never causes it. *)

val wide_lock_box : n:int -> spares:int * int -> Mechaml_legacy.Blackbox.t
(** The same lock, but its interface additionally declares [(ki, ko)] spare
    input/output signals no transition ever uses.  Each spare doubles the
    chaotic closure's escape fan-out (℘(I) × ℘(O)) while the learned
    protocol — and hence the synthesis iteration count — stays that of
    {!lock_box}: big closures, small per-iteration deltas, the regime that
    exercises incremental re-verification.  The closure keeps that fan-out
    symbolic (escape rows), so [|I| + |O|] need only fit
    {!Mechaml_util.Bitset.max_width}; materializing it is capped at
    {!Mechaml_core.Chaos.max_alphabet}. *)

val wide_lock_context : n:int -> depth:int -> spares:int * int -> Mechaml_ts.Automaton.t
(** {!lock_context} with the matching spare signals declared (a context must
    produce every legacy input and consume every legacy output); its
    transitions never exercise them. *)

val lock_property : Mechaml_logic.Ctl.t
(** [AG ¬ lock.unlocked] — provable for every context with [depth < n]. *)

val lock_label_of : string -> string list
(** Labels the [unlocked] state with [lock.unlocked]. *)

val lock_alphabet : string list list
(** The L*/AMC input alphabet: [∅], [{a}], [{b}]. *)

val random_machine :
  seed:int -> states:int -> inputs:string list -> outputs:string list -> Mechaml_ts.Automaton.t
(** Reproducible random complete input-deterministic machines (property-based
    tests and model-checker scalability sweeps).  Every state answers every
    single-signal input set and the empty set. *)

val random_context :
  seed:int -> states:int -> legacy_inputs:string list -> legacy_outputs:string list ->
  Mechaml_ts.Automaton.t
(** A random closed context for such a machine: each state offers one or two
    interactions (an output towards the legacy component and the legacy
    output it is prepared to consume). *)
