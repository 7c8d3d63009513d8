(** Domain-safe memoization for the campaign engine.

    The two expensive pure stages of a synthesis-loop iteration — the chaotic
    closure of a learned model ({!Mechaml_core.Chaos.closure}) and the
    model-checking outcome on a product automaton
    ({!Mechaml_mc.Checker.check_conjunction}) — are deterministic functions
    of their full structural input.  A cache keyed by a digest that names
    that input can therefore only ever return exactly what the computation
    would have produced: sharing one cache across jobs, iterations or worker
    domains never changes a verdict, only the time (and the hit counters)
    taken to reach it.

    {!Campaign} keys a closure by the {!digest} of (family, legacy-side
    propositions, learned model), and a check by the {!digest} of
    (strategy, formulas, {!Mechaml_ts.Automaton.digest} of the context,
    closure key of the same iteration).  The product is a function of the
    context and the closure, so it is never digested itself; and because
    verdicts are byte-identical across the materialized, sharded and
    distributed tiers, all tiers share check entries.

    Entries repeat across campaign jobs whenever two jobs share a context and
    iterate through the same learned models — e.g. the same scenario swept
    under both counterexample strategies, or re-running a matrix against an
    unchanged component (a warm cache answers every stage). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the entries stored {e per table} (closures and checks
    each); when the bound is exceeded the {e least-recently-used} entry is
    evicted and counted in {!stats}.  Recency is touch-on-hit: every lookup
    that answers from the cache moves its entry to the front, so a shared
    long-lived cache (the [mechaverify serve] daemon) keeps the entries the
    traffic actually reuses rather than the oldest-inserted ones.

    {b Behaviour change (PR 6):} eviction used to be FIFO by insertion
    order; hits now refresh recency, so a hot entry survives capacity
    pressure that would previously have dropped it.  The [evictions]
    counter semantics are unchanged — one increment per entry dropped by
    the capacity bound.

    Eviction only bounds memory — a dropped entry is recomputed on its next
    lookup, never answered wrongly.  Default: unbounded.  Raises
    [Invalid_argument] when [capacity < 1]. *)

val digest : 'a -> string
(** Structural digest (MD5 of the marshalled value) used as cache key.  The
    value must be marshallable — plain data, no closures; incomplete models,
    formulas and digests qualify.  An {!Mechaml_ts.Automaton.t} is better
    named by {!Mechaml_ts.Automaton.digest}: marshalling it also covers its
    lazily derived index, so its bytes change once the index is forced. *)

val closure : t -> key:string -> (unit -> Mechaml_ts.Automaton.t) -> Mechaml_ts.Automaton.t * bool
(** [closure t ~key compute] returns the cached closure for [key], or runs
    [compute] and stores the result.  The boolean is [true] on a hit.  Safe
    to call from several domains; [compute] runs outside the cache lock.  Two
    domains racing on the same fresh key may both compute: the first stored
    value wins for future lookups, but each computing caller gets back the
    value its own [compute] returned, so physical identity between the two is
    preserved on the computing path. *)

val check : t -> key:string -> (unit -> Mechaml_mc.Checker.outcome) -> Mechaml_mc.Checker.outcome * bool
(** Same protocol for model-checking outcomes. *)

type stats = {
  closure_hits : int;
  closure_misses : int;
  check_hits : int;
  check_misses : int;
  entries : int;  (** distinct values currently stored *)
  evictions : int;  (** entries dropped by the capacity bound *)
}

val stats : t -> stats

val hits : stats -> int

val lookups : stats -> int

val hit_rate : stats -> float
(** [hits / lookups]; [0.] when no lookup happened yet. *)

(** {2 Persistence}

    A long-running daemon snapshots its cache so a restart comes back warm.
    Snapshots carry only the memoized entries (keys, values, recency order)
    — the hit/miss counters start from zero in the loading process. *)

val save : t -> path:string -> unit
(** Atomically snapshot every entry to [path] (write-temp + rename, parent
    directory created): a crash mid-save leaves the previous snapshot
    intact.  Safe to call concurrently with lookups; the snapshot is a
    consistent point-in-time view. *)

val load : t -> path:string -> (int, string) result
(** Restore a {!save} snapshot into [t], preserving recency order; returns
    the number of entries restored.  A capacity-bounded cache keeps only the
    most recent [capacity] entries per table.  Entries already present in
    [t] win over snapshot entries under the same key.  [Error] on a missing,
    foreign or corrupt file, or one written under another key scheme (the
    header carries a version, now [mechaml-cache 2]) — never raises, the
    cache is usable either way. *)
