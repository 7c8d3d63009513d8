(** Initial behavior synthesis (Section 3).

    From the known structural interface of the legacy component — its signal
    names and initial state, read off the architectural model or
    straightforwardly reverse-engineered — build the trivial incomplete
    automaton [M_l⁰] (one state, nothing known) and its chaotic closure
    [M_a⁰ = chaos(M_l⁰)], which by Lemma 4 is a safe abstraction of the
    legacy component: [M_r ⊑ M_a⁰]. *)

val initial_model : Mechaml_legacy.Blackbox.t -> Incomplete.t
(** [M_l⁰] (Fig. 4(a)). *)

val initial_abstraction :
  ?label_of:(string -> string list) -> Mechaml_legacy.Blackbox.t -> Mechaml_ts.Automaton.t
(** [M_a⁰ = chaos(M_l⁰)] (Fig. 4(b)), its chaotic rows as escapes
    ({!Chaos.materialize} writes them out). *)
