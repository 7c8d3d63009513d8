(** Counterexample witnesses.

    When a (compositional, universally quantified) property fails, the model
    checker produces a finite run of the automaton witnessing the existential
    dual — the counterexample handed to the testing step (Section 4.2,
    Listing 1.1).  Witnesses exist as finite runs for the fragment the
    approach needs: reachability of a bad state ([EF]), of a deadlock, and
    bounded/unbounded [EG]/[EU] lassos.  For connectives outside the
    supported fragment the witness degenerates to the failing initial state
    with an explanatory note — the verdict is still correct, only the trace
    is less informative. *)

type strategy =
  | Bfs_shortest  (** breadth-first: shortest counterexamples *)
  | Dfs_first     (** depth-first: first found; ablation EXP-T3 *)

type t = {
  run : Mechaml_ts.Run.t;
  explanation : string;
  complete : bool;
      (** [true] when the run alone is full evidence for the formula: every
          obligation is discharged by the states and interactions on the run
          (including closed lassos, which repeat forever by determinism).
          [false] when the evidence additionally relies on the final state
          {e blocking} (a maximal run ending early) or on an obligation the
          extractor could not unfold — for an abstraction, such residual
          claims must be validated against the real component before the
          counterexample may be called real (Section 4.2). *)
}

type space = {
  states : int;
  initial : int list;  (** in the order {!Checker} reports failing ones *)
  succ : int array -> int array array;
      (** each state's successors in adjacency order; a transition is
          named by its position in its state's array.  Breadth-first
          searches ask for a whole level at once, so a provider can read
          its storage in batches *)
  io : int -> int -> Mechaml_ts.Run.io;
      (** [io s k]: the label of [s]'s [k]-th transition — asked only for
          the edges of a returned run *)
  sat : Mechaml_logic.Ctl.t -> Mechaml_util.Bitvec.t;
      (** satisfaction sets (memoized by the provider; never mutated here) *)
  name : int -> string;  (** state names, asked only for explanations *)
}
(** What witness extraction reads of a checked state space.  {!Sat.space}
    fills it for an automaton, [Shardsat.space] for a sharded product. *)

val bfs :
  space -> from:int list -> expand:(int -> bool) -> (int -> bool) -> (int * int) option array
(** [bfs space ~from ~expand stop]: breadth-first search from the states
    [from] in the order of a single-queue BFS, each level's successors
    asked for at once.  Every newly discovered state [d] (the sources
    first) goes to [stop], which ends the search by returning [true];
    otherwise [d] is expanded when [expand d] holds.  Returns the parent
    map: each discovered state's predecessor and edge position. *)

val path : space -> (int * int) option array -> int -> int list * Mechaml_ts.Run.io list
(** The states and labels of the path {!bfs}'s parent map records from a
    source to the given state. *)

val is_state_formula : Mechaml_logic.Ctl.t -> bool
(** No temporal operator: a state's label and whether it blocks decide
    the formula there. *)

val witness : space -> strategy:strategy -> start:int -> Mechaml_logic.Ctl.t -> t
(** [witness space ~strategy ~start psi] builds a run from [start]
    witnessing the formula [psi], which must hold at [start] (checked;
    raises [Invalid_argument] otherwise). *)
