(** Global CTL satisfaction over a distributed product ({!Distshard}):
    {!Mechaml_mc.Shardsat} on the coordinator's {!Distshard.shard}, with
    the successor sweeps and the unbounded fixpoints run on the worker
    fleet — each worker driving the {!Mechaml_mc.Worklist} kernel over its
    adopted shards while the coordinator routes boundary items between
    them.  The fixpoints are confluent, so the distributed schedule
    (including mid-operator worker restarts) converges to bit-for-bit the
    same sets as {!Mechaml_mc.Sat} and the in-process
    {!Mechaml_mc.Shardsat}, for any worker and shard count.  Environments
    and warm starts are {!Mechaml_mc.Eval}'s, witnesses
    {!Mechaml_mc.Shardsat.space}. *)

val fleet : Distshard.t -> Mechaml_mc.Shardsat.fixpoints
(** The product's sweeps and fixpoints on its fleet, for
    {!Mechaml_mc.Shardsat.backend}[ ~fleet].
    They raise {!Distshard.Dist_error} if the fleet cannot be kept
    alive. *)

val create : Distshard.t -> Mechaml_mc.Eval.env
(** [Shardsat.create ~fleet:(fleet d) (Distshard.shard d)].  The product
    must stay open (not {!Distshard.close}d) while the env is in use. *)

val holds_initially : Mechaml_mc.Eval.env -> Mechaml_logic.Ctl.t -> bool
(** {!Mechaml_mc.Eval.holds_initially}. *)
