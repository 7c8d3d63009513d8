(** Sharded, out-of-core product exploration — the one product explorer
    behind every out-of-core tier.

    {!Compose.parallel} materializes the whole product as one automaton —
    one interning table, one adjacency array, one domain's RAM.  [Shard]
    partitions the same BFS by a hash of the packed pair key: one CSR
    segment per shard (the states are interned in one flat table), shard-local
    frontiers expanded per BFS level, and a boundary-exchange merge that hands out state numbers in
    {e global discovery order} — so state numbering, labels, adjacency
    order, and therefore every verdict derived from them are byte-identical
    to the single-shard construction for any shard count.

    During the build a state is its packed pair key — one word per
    discovered state, in discovery order; each level's frontiers are cut
    from that array, and the {!owner}, {!local} and member maps are
    derived from the keys in one counting pass once the BFS is done.

    Where a level's expansion runs is the caller's choice of {!expand}
    transport: by default inline in the calling domain, or — through
    [Mechaml_dist.Distshard] — on a fleet of worker processes.  Interning,
    the merge, spill accounting and the forward/predecessor CSR
    finalization always run here, so every transport builds the identical
    product.

    Under a memory budget the per-shard segments live in a {!Segment}
    manager: cold shards spill to disk and reload on demand, bounding
    resident memory by the watermark instead of the product size.  The
    sharded product stores no state names and no transition labels: a
    state's name ({!state_name}) and an edge's label ({!io}) are rebuilt on
    demand from the packed pair key every state keeps, which is all the
    witness of a counterexample needs.  Every check of the synthesis loop
    runs on this product — one unbudgeted shard by default. *)

module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment

(** How the shards are placed across {e processes}.  Plain data — the
    distributed engine itself lives in [Mechaml_dist] so that this library
    carries no wire dependency; [Shard.explore] ignores the field and the
    pipeline ({!Mechaml_core}[.Loop]) dispatches on it. *)
type dist_mode =
  | Fork of int  (** spawn N local [mechaverify shard-worker] processes *)
  | Connect of string list
      (** attach to pre-started workers at these addresses
          ([host:port] or Unix socket paths) *)

type distribution = {
  dist_mode : dist_mode;
  dist_deadline_s : float;
      (** per-round reply deadline; a worker silent for longer is treated as
          crashed and its shards are re-dispatched *)
}

val distribution : ?deadline_s:float -> dist_mode -> distribution
(** Default deadline: 120 s.  Raises [Invalid_argument] on [Fork n] with
    [n < 1], an empty [Connect] list, or a non-positive deadline. *)

type config = {
  shards : int;  (** number of partitions, >= 1 *)
  mem_budget : int option;  (** residency watermark in bytes; [None] = never spill *)
  spill_dir : string option;  (** parent directory for spill files *)
  distribution : distribution option;
      (** when set, the pipeline runs the build and the fixpoints on a
          worker-process fleet instead of in this process *)
}

val config :
  ?shards:int ->
  ?mem_budget:int ->
  ?spill_dir:string ->
  ?distribution:distribution ->
  unit ->
  config
(** Defaults: [shards = 1], no budget, system temp dir, no distribution.
    Raises [Invalid_argument] on [shards < 1]. *)

type t

(** One shard's resident segment: [members] maps local index to global
    state id (ascending); [row]/[dst] and [prow]/[psrc] are the forward and
    predecessor CSR over local source indices with global neighbour ids.
    Views borrow manager payloads — they stay valid even if the shard is
    evicted while in use, but long-lived references defeat the budget. *)
type view = {
  members : int array;
  row : int array;
  dst : int array;
  prow : int array;
  psrc : int array;
}

type expand = int array array -> (int array * int array) array
(** A level's expansion transport.  Called once per BFS level with each
    shard's frontier as packed pair keys ([l * num_states right + r], in
    discovery order); answers, per shard, the joint-move count of every
    frontier state and the flattened successor keys, both in frontier order
    and in {!Compose.moves}' enumeration order.  The answer is read
    before the next call, so a transport may reuse its buffers.  The
    explorer trusts the answer: a transport fed by untrusted peers must
    validate it first. *)

val explore : ?config:config -> ?expand:expand -> Automaton.t -> Automaton.t -> t
(** [explore left right] builds the sharded product of the two operands.
    Same preconditions as {!Compose.parallel} (composability, disjoint
    proposition universes); raises [Invalid_argument] otherwise, and when
    the product exceeds 2{^31} states.  Without [expand], levels are
    expanded inline in the calling domain ([config.distribution] is ignored
    here).  The choice never changes the product: the merge is serial in
    discovery order either way.  Each level's [ts.shard.round] trace span
    says where it ran ([fanout]: [inline], or [fleet] for a caller's
    [expand]). *)

val num_states : t -> int

val num_transitions : t -> int

val initial : t -> int list
(** Global ids of the initial pairs, in {!Compose.parallel}'s order. *)

val shards : t -> int

val sizes : t -> int array
(** States per shard. *)

val owner : t -> int array
(** Global state id -> owning shard (derived from the packed keys after
    the build). *)

val local : t -> int array
(** Global state id -> local index within its owning shard: its rank
    among the shard's states in id order, so that
    [(view t (owner.(s))).members.(local.(s)) = s]. *)

val label : t -> int -> Bitset.t
(** A state's proposition label, computed from its pair: left labels, then
    right labels shifted past the left proposition universe —
    {!Compose.parallel}'s packing. *)

val props : t -> Universe.t
(** The product's proposition universe (left ∪ right). *)

val blocking : t -> Bitvec.t
(** Global bit per state: no outgoing joint move. *)

val pair : t -> int -> int * int
(** Global state id -> its (left state, right state) pair, from the packed
    key kept per state (resident, like {!owner}). *)

val state_name : t -> int -> string
(** ["l,r"] from the operands' state names — {!Compose.parallel}'s name
    for the same state. *)

val succ : t -> int array -> int array array
(** Each state's successors in adjacency order ({!Compose.parallel}'s
    [transitions_from] order), read from the shards' forward segments one
    shard at a time, so a batch reads each segment once and none that no
    state of the batch lives in (a breadth-first search that
    asks for a whole level does not thrash a spilling budget); raises
    {!Segment.Spill_error} on a damaged spill file. *)

val io : t -> int -> int -> Mechaml_util.Bitset.t * Mechaml_util.Bitset.t
(** [io t s k] is the combined interaction label of the [k]-th transition
    out of [s] in {!succ} order, recomputed with {!Compose.moves} (the
    join kernel is built on first use).  Raises [Invalid_argument] when
    [s] has fewer than [k + 1] transitions. *)

val view : t -> int -> view
(** The shard's segment, reloading from spill files as needed; raises
    {!Segment.Spill_error} on a damaged spill file. *)

val manager : t -> Segment.t
(** The residency manager — the checker registers its per-shard sat-set
    bit vectors here so they share the same budget and spill tier. *)

val spills : t -> int

val reloads : t -> int

val close : t -> unit
(** Remove every spill file.  Idempotent. *)
