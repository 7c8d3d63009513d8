(* Order statistics for timing samples. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Nearest-rank index of the [pct]-th percentile among [n] samples:
   the smallest index with at least [pct]% of the samples at or below it. *)
let rank_index ~pct n =
  if n < 1 then invalid_arg "Stats.rank_index: no samples";
  if pct < 0 || pct > 100 then invalid_arg "Stats.rank_index: pct outside 0..100";
  max 0 (((pct * n) + 99) / 100 - 1)

(* Samples strictly above the [pct]-th percentile. *)
let beyond ~pct n = n - (rank_index ~pct n + 1)

(* A tail percentile is reported only with at least this many samples
   beyond it. *)
let min_beyond = 10

let percentile ~pct a =
  let n = Array.length a in
  if beyond ~pct n < min_beyond && pct > 50 then
    invalid_arg
      (Printf.sprintf "Stats.percentile: p%d of %d samples has only %d beyond it" pct n
         (beyond ~pct n));
  (sorted a).(rank_index ~pct n)

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a

let mean a = if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)
