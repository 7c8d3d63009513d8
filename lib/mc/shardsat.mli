(** Global CTL satisfaction over a sharded product ({!Mechaml_ts.Shard}):
    the {!Eval} evaluator over a sharded backend.

    Satisfaction sets are global bit vectors; the structure is read one
    shard view at a time.  Every shard is an owned block of the
    {!Worklist} kernel: each unbounded fixpoint drains the shard stacks in
    rounds, one shard view resident per batch, and a push whose owning
    shard differs from the one being drained is a boundary push
    ([mc_shard_boundary_pushes_total]; rounds are
    [mc_shard_rounds_total], each an [mc.shard.round] span).  The
    fixpoints are confluent, so the shard-batched processing order
    converges to bit-for-bit the same sets as {!Sat}, for any shard
    count.

    Converged sets are banked in the product's
    {!Mechaml_ts.Shard.manager}, so under a memory budget cold sat sets
    spill to disk alongside the CSR segments and reload on demand.  Every
    check of the synthesis loop, witnesses included, runs
    on this backend; [Mechaml_dist.Distsat.fleet] moves its sweeps and
    fixpoints to a worker fleet. *)

module Ctl = Mechaml_logic.Ctl
module Shard = Mechaml_ts.Shard

type fixpoints = {
  agg : forall:bool -> Mechaml_util.Bitvec.t -> Mechaml_util.Bitvec.t;
  fixpoint :
    Eval.fix ->
    init:Mechaml_util.Bitvec.t ->
    guard:Mechaml_util.Bitvec.t option ->
    Mechaml_util.Bitvec.t;
}
(** Where the successor sweep and the unbounded fixpoints run.
    [Mechaml_dist.Distsat.fleet] runs them on a worker fleet; without
    [~fleet] they run in this process, shard-batched as described above. *)

val backend : ?fleet:fixpoints -> Shard.t -> Eval.backend
(** The product as the evaluator reads it.  The product must stay open
    (not {!Mechaml_ts.Shard.close}d) while an environment over it is in
    use; a damaged spill file surfaces as {!Mechaml_util.Segment.Spill_error}
    from the environment's queries. *)

val create : ?fleet:fixpoints -> Shard.t -> Eval.env
(** [Eval.create (backend ?fleet sp)]. *)

val holds_initially : Eval.env -> Ctl.t -> bool
(** {!Eval.holds_initially}. *)

val space : Shard.t -> sat:(Ctl.t -> Mechaml_util.Bitvec.t) -> Witness.space
(** The product as {!Witness} and {!Checker} read it, with [sat] the sets
    of the environment that checked it: successors from the shard views,
    state names and edge labels rebuilt from the pair keys on demand. *)
