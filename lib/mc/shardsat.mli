(** Global CTL satisfaction over a sharded product ({!Mechaml_ts.Shard}):
    the {!Eval} evaluator over an in-process sharded backend.

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
    spill to disk alongside the CSR segments and reload on demand.

    The evaluator's warm-start seeding needs an [old_of]/[dirty] map
    between consecutive products, which only the materialized pipeline
    builds, so this interface offers cold environments only. *)

module Ctl = Mechaml_logic.Ctl
module Shard = Mechaml_ts.Shard

type env

val create : Shard.t -> env
(** An environment over an explored sharded product.  The product must stay
    open (not {!Mechaml_ts.Shard.close}d) while the env is in use. *)

val sat_vec : env -> Ctl.t -> Mechaml_util.Bitvec.t
(** The global satisfaction set, bit-identical to {!Sat.sat_vec} on the
    materialized product.  Callers must not mutate the result.  Raises
    {!Mechaml_util.Segment.Spill_error} if a spilled segment cannot be read
    back. *)

val holds_initially : env -> Ctl.t -> bool
(** Whether every initial product state satisfies the formula — identical
    to {!Sat.holds_initially} on the materialized product.  Raises
    {!Mechaml_util.Segment.Spill_error} if a spilled segment cannot be read
    back. *)

val failing_initial : env -> Ctl.t -> int option
(** First initial state (in initial-list order) violating the formula. *)
