(** The one worklist kernel: the four unbounded fixpoints of {!Eval.fix}
    and the successor sweep behind an {!Eval.backend}'s [agg], for every
    backend.

    States are partitioned into {e blocks}, each read through a
    {!Mechaml_ts.Shard.view}; global [owner]/[local] maps say where each
    state lives.  A process drains only the blocks it owns, one block at a
    time with its view resident while its stack drains.  A relaxation that
    reaches a state of a foreign block is handed to the [emit] callback;
    items that arrive from elsewhere go through the same relaxation step
    ({!feed}).  The three callers set it up differently:
    - {!Sat}: one block whose ids are the global ids ({!flat});
    - {!Shardsat}: every shard a block, all owned, so nothing is emitted;
    - [Mechaml_dist.Distworker]: the shards a worker adopted, its outboxes
      as [emit] and the coordinator's boundary items as {!feed}.

    Every fixpoint is confluent, so any schedule, block count or split of
    the blocks between processes converges to the same set. *)

module Bitvec = Mechaml_util.Bitvec
module Shard = Mechaml_ts.Shard

type space
(** A partitioned state space, as seen by one process. *)

val flat :
  blocking:Bitvec.t -> row:int array -> dst:int array -> prow:int array -> psrc:int array -> space
(** One block, owned, whose local ids are the global ids: the forward
    ([row]/[dst]) and predecessor ([prow]/[psrc]) CSR over all states.
    There are no owner/local maps to consult. *)

val blocks :
  blocking:Bitvec.t ->
  owner:int array ->
  local:int array ->
  sizes:int array ->
  owned:bool array ->
  (int -> Shard.view) ->
  space
(** [blocks ~blocking ~owner ~local ~sizes ~owned view]: block [k] holds
    [sizes.(k)] states and is read through [view k]; [owner]/[local] map a
    global id to its block and its index there, and this process drains the
    blocks with [owned.(k)].  [blocking] must be right on owned states.  The
    caller guarantees the maps and views agree. *)

val agg : space -> forall:bool -> Bitvec.t -> Bitvec.t
(** [agg sp ~forall x]: the owned states all ([forall]) or some of whose
    successors (one per transition) are in [x] — vacuously true resp. false
    at blocking states.  Bits of foreign states are clear. *)

type run
(** One fixpoint in progress. *)

val start :
  space -> Eval.fix -> init:Bitvec.t -> guard:Bitvec.t option -> emit:(int -> unit) -> run
(** Seed the fixpoint from [init] ([guard] is the [f] of [E/A (f U g)];
    [None] means every state).  [emit p] receives each relaxation that
    reaches a state [p] of a foreign block; it is never called when every
    block is owned. *)

val feed : run -> int -> unit
(** Apply a boundary item for an owned state, as emitted by another
    process's run of the same fixpoint.  Raises [Invalid_argument] for a
    state of a foreign block. *)

val round : run -> int
(** Drain each owned block with pending work once, in block order; returns
    the number of states popped (0 once quiet).  Pushes into a block
    already visited wait for the next round.  Adds the pops to
    [mc_worklist_pops_total]. *)

val boundary : run -> int
(** Pushes so far from one block's drain onto another block's stack. *)

val result : run -> Bitvec.t
(** The set; exact on owned states once every process is quiet. *)

val fixpoint : space -> Eval.fix -> init:Bitvec.t -> guard:Bitvec.t option -> Bitvec.t
(** [start], rounds until quiet, [result] — for a space whose blocks are
    all owned. *)
