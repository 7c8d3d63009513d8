(** Global CTL satisfaction over a distributed product ({!Distshard}): the
    {!Mechaml_mc.Eval} evaluator over a worker-fleet backend.

    Satisfaction sets are global bit vectors held by the coordinator;
    successor sweeps and the unbounded fixpoints run on the worker fleet,
    each worker driving the {!Mechaml_mc.Worklist} kernel over its adopted
    shards while the coordinator routes boundary items between them.
    The fixpoints are confluent, so the distributed schedule (including
    mid-operator worker restarts) converges to bit-for-bit the same sets as
    {!Mechaml_mc.Sat} and {!Mechaml_mc.Shardsat}, for any worker and shard
    count.  Converged sets are banked in the coordinator's segment manager.
    As for {!Mechaml_mc.Shardsat}, only cold environments are offered. *)

module Ctl = Mechaml_logic.Ctl

type env

val create : Distshard.t -> env
(** The product must stay open (not {!Distshard.close}d) while the env is
    in use. *)

val sat_vec : env -> Ctl.t -> Mechaml_util.Bitvec.t
(** The global satisfaction set, bit-identical to
    {!Mechaml_mc.Sat.sat_vec} on the materialized product.  Callers must
    not mutate the result. *)

val holds_initially : env -> Ctl.t -> bool
(** Whether every initial product state satisfies the formula — identical
    to {!Mechaml_mc.Sat.holds_initially} on the materialized product.
    Raises {!Distshard.Dist_error} if the fleet cannot be kept alive. *)

val failing_initial : env -> Ctl.t -> int option
(** First initial state (in initial-list order) violating the formula. *)
