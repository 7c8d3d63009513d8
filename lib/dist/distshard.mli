(** Cross-process sharded product exploration: the coordinator.

    {!Mechaml_ts.Shard.explore} with a fleet transport: each BFS level's
    frontier expansion runs on worker processes ({!Distworker}) reached
    over {!Mechaml_wire.Shardwire}, while interning, the serial
    discovery-order merge and the forward/predecessor CSR finalization stay
    in [Shard] on the coordinator.  The product is therefore the in-process
    one — state numbering, labels, degrees, adjacency order, and every
    verdict derived from them are byte-identical to
    {!Mechaml_ts.Compose.parallel} and to the in-process sharded path, for
    any worker count.  After the build each worker receives its shards'
    finished segments and runs the shard-local part of the global fixpoints.
    Coordinator and workers must run the same build of the program.

    Fault tolerance: a build request carries everything the worker needs
    (the frontier keys), and every reply is verified before the merge.  A
    worker that crashes, misses the per-round deadline, or answers data
    that does not verify is replaced — respawned in place under [Fork], or
    its shards are re-dispatched to a surviving peer under [Connect] — and
    sent the same request again.  After the build a replacement is
    reinstalled from the coordinator's finished segments.  The
    coordinator's resident memory stays bounded by the configured budget
    (plus O(states) metadata, as in the in-process explorer). *)

module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Shard = Mechaml_ts.Shard
module Automaton = Mechaml_ts.Automaton

exception Dist_error of string
(** Unrecoverable fleet failure: no workers left, or the restart budget
    exhausted (by crashes, deadlines or replies that do not verify). *)

type t

val explore :
  ?config:Shard.config ->
  ?chaos_die_after:int * int ->
  Automaton.t ->
  Automaton.t ->
  t
(** [explore left right] builds the product on the fleet described by
    [config.distribution] (required — raises [Invalid_argument] without
    one).  [chaos_die_after (w, r)] is a test hook: worker [w] simulates a
    crash after [r] build rounds, exercising mid-build recovery. *)

val shard : t -> Shard.t
(** The product itself — read its structure through {!Mechaml_ts.Shard}.
    Valid until {!close}. *)

val num_states : t -> int

val num_transitions : t -> int

val manager : t -> Segment.t
(** The coordinator's residency manager ([Shard.manager (shard t)]);
    the checker ({!Mechaml_mc.Shardsat}) banks its converged sets here so
    they share the budget. *)

val restarts : t -> int
(** Workers declared dead and replaced over this product's lifetime. *)

(** {1 Process-wide wire totals — the [mc_dist_*_total] metrics}

    These are {!Mechaml_obs.Metrics} counters: they count only while the
    registry is enabled ({!Mechaml_obs.Metrics.set_enabled}), and read 0
    for work done while it is off. *)

val total_rounds : unit -> int

val total_bytes_tx : unit -> int

val total_bytes_rx : unit -> int

val total_restarts : unit -> int

val close : t -> unit
(** Close worker sessions (and, under [Fork], shut the processes down),
    stop the dispatch crew, remove every spill file and socket.
    Idempotent. *)

(** {1 Distributed satisfaction primitives — used by {!Distsat}}

    All results are global bit vectors assembled per owning shard, and all
    operations recover from worker loss internally: stateless sweeps are
    retried, stateful fixpoints are restarted from their operands (they are
    confluent, so a restart converges to the identical set). *)

val agg : t -> forall:bool -> Bitvec.t -> Bitvec.t
(** [agg t ~forall x] — per state: quantify [x] over its successors
    ([forall]: vacuously true when blocking; [exists]: false). *)

type fix_kind = Mechaml_mc.Eval.fix = Ef | Eu | Eg | Au

val fixpoint : t -> fix_kind -> init:Bitvec.t -> guard:Bitvec.t option -> Bitvec.t
(** The four unbounded fixpoints ({!Mechaml_mc.Eval.fix}), distributed:
    initial sets and boundary frontiers travel as digest-checked bitset
    deltas; workers drain shard-local worklists between exchanges.
    [guard] is the [f] of [E/A (f U g)] (required for [Eu]/[Au]). *)
