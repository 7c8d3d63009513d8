(** Campaign reports: the per-job table printed by [mechaverify campaign]
    and the JSON/CSV serializations consumed by dashboards and CI.

    Two serializations with different contracts:

    - {!to_json} / {!to_csv} carry everything, including the measured fields
      (durations, per-job cache counters) that legitimately vary between
      runs and worker counts;
    - {!canonical} carries only the deterministic fields — two campaigns
      over the same matrix are byte-identical there regardless of [jobs],
      cache warmth, machine load or incremental re-verification mode.  The
      engine tests compare campaigns through it.

    The incremental-reuse counter [closure_delta_edges] appears in the
    table, JSON and CSV outputs but deliberately {e not} in {!canonical}:
    it describes how a result was computed, not what it is, and differs
    between [incremental] on and off while the verdicts do not.  Like the
    cache counters it also depends on worker scheduling — a closure served by
    the shared memo cache contributes no delta edges, and which job
    computes first varies with [jobs]. *)

val table : Campaign.outcome list -> string
(** Aligned plain-text per-job table ({!Mechaml_util.Pp.table}). *)

val summary : ?jobs:int -> Campaign.outcome list -> string
(** One-line digest: job and verdict counts, total loop tests, aggregate
    cache hit rate, total wall-clock. *)

val to_json : ?jobs:int -> Campaign.outcome list -> string
(** The full report:
    {v
    { "schema": "mechaml-campaign/1",
      "jobs": 4,
      "job_count": 22,
      "total_duration_s": 0.84,
      "cache": { "closure_hits": …, "closure_misses": …,
                 "check_hits": …, "check_misses": …, "hit_rate": 0.31 },
      "results": [
        { "id": "railcab/correct/constraint/bfs", "family": "railcab",
          "verdict": "proved",            // proved | real_deadlock |
                                          // real_property | exhausted |
                                          // timed_out | failed
          "confirmed_by_test": true,      // real_* only
          "error": "…",                   // failed only
          "iterations": 4, "states_learned": 3, "knowledge": 11,
          "tests_executed": 5, "test_steps": 17, "attempts": 1,
          "duration_s": 0.012,
          "cache": { "closure_hits": 0, "closure_misses": 4,
                     "check_hits": 0, "check_misses": 4 } }, … ] }
    v}
    [total_duration_s] sums the per-job durations (CPU-ish under a pool). *)

val to_csv : Campaign.outcome list -> string
(** One row per job with the same fields, RFC-4180 quoting. *)

val csv_field : string -> string
(** RFC-4180 field encoding: returned verbatim unless it contains a comma,
    double quote, LF or CR, in which case it is wrapped in double quotes with
    embedded quotes doubled. *)

val canonical : Campaign.outcome list -> string
(** Deterministic digest: per job a line
    [id|verdict|fault|iterations|states|knowledge|closure|product|tests|steps|attempts],
    sorted by id ([closure]/[product] are the peak automaton sizes).
    Byte-identical across worker counts, cache states and tracing. *)

val save : path:string -> string -> unit
(** Write a serialized report to [path] (parent directories created). *)
