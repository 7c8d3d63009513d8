(** The testable core of [bench_check]: bench [--json] snapshot parsing
    (the executable keeps only IO and exit codes). *)

val benchmarks :
  Mechaml_obs.Json.t -> (((string * string) * float) list, string) result
(** The [(group, name) -> ns/run] rows of a parsed bench [--json] file.
    Rows whose value is null (a NaN estimate on that run) are dropped;
    [Error] when the [benchmarks_ns_per_run] array is missing. *)

val human_ns : float -> string
(** "812 ns", "3.41 us", "36.92 ms", "1.20 s". *)
