(** Cross-process sharded product exploration: the coordinator.

    Drives the same level-synchronized BFS as {!Mechaml_ts.Shard}, but with
    expansion and segment residency on a fleet of worker processes
    ({!Distworker}) reached over {!Mechaml_wire.Shardwire}.  The coordinator
    keeps the per-shard interning tables and performs the serial
    discovery-order merge itself, so state numbering, labels, degrees,
    adjacency order — and therefore every verdict derived from them — are
    byte-identical to {!Mechaml_ts.Compose.parallel} and to the in-process
    sharded path, for any worker count.

    Fault tolerance: the coordinator banks every shipped edge generation
    (and, after the build, every forward/predecessor segment) in its own
    {!Mechaml_util.Segment} manager.  A worker that crashes or misses the
    per-round deadline is replaced — respawned in place under [Fork],
    or its shards are re-dispatched to a surviving peer under [Connect] —
    and rebuilt from the banked generation; the build then continues with
    identical results.  The coordinator's resident memory stays bounded by
    the configured budget (plus O(states) metadata, as everywhere else). *)

module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Shard = Mechaml_ts.Shard
module Universe = Mechaml_ts.Universe
module Automaton = Mechaml_ts.Automaton

exception Dist_error of string
(** Unrecoverable fleet failure: no workers left, restart budget exhausted,
    or a worker answered data that does not verify against the protocol. *)

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

(** {1 Structure accessors — mirror {!Mechaml_ts.Shard}} *)

val num_states : t -> int

val num_transitions : t -> int

val initial : t -> int list

val shards : t -> int

val sizes : t -> int array

val owner : t -> int array

val local : t -> int array

val labels : t -> Bitset.t array

val props : t -> Universe.t

val blocking : t -> Bitvec.t

type view = Shard.view = {
  members : int array;
  row : int array;
  dst : int array;
  prow : int array;
  psrc : int array;
}

val view : t -> int -> view
(** The shard's banked segment generation (coordinator-side copy). *)

val manager : t -> Segment.t
(** The coordinator's residency manager; {!Distsat} banks its converged
    sets here so they share the budget. *)

val spills : t -> int

val reloads : t -> int

val restarts : t -> int
(** Workers declared dead and replaced over this product's lifetime. *)

(** {1 Process-wide wire totals — the [mc_dist_*_total] metrics} *)

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
