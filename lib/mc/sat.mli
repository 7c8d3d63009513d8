(** Satisfaction sets for CCTL over the explicit state space of an
    automaton: the {!Eval} evaluator over the automaton's backend.

    The backend keeps the automaton's CSR adjacency in both directions as
    one flat block of the {!Worklist} kernel, which runs every unbounded
    fixpoint and successor sweep; converged sets stay in memory.  The CCTL
    semantics (maximal runs, discrete-time bounds) and the operator table
    are {!Eval}'s, shared with {!Shardsat}, which computes bit-for-bit the
    same sets.  The synthesis loop checks on a sharded product; this
    backend serves plain automata — {!Checker}'s entry points, the figure
    drivers and the tests' reference. *)

val backend : Mechaml_ts.Automaton.t -> Eval.backend
(** Raises [Invalid_argument] from [prop] when a formula mentions a
    proposition absent from the automaton's universe — catching typos
    beats treating them as false. *)

val create : Mechaml_ts.Automaton.t -> Eval.env
(** [Eval.create (backend auto)]. *)

val space : Mechaml_ts.Automaton.t -> Eval.env -> Witness.space
(** The automaton as {!Witness} and {!Checker} read it: adjacency-list
    successors and labels, state names, and the environment's sets. *)
