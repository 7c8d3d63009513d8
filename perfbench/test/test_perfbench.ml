(* Unit tests for the benchmark's measuring core: host normalization, the
   tail-percentile rule and span self-time attribution. *)

open Perfbench_core

let close ?(eps = 1e-9) what a b =
  if Float.abs (a -. b) > eps then failwith (Printf.sprintf "%s: %.12g <> %.12g" what a b)

let check what b = if not b then failwith what

let normalizer () =
  let n = Host.nominal_s in
  (* a host running at exactly nominal speed leaves the sample unchanged *)
  close "nominal host" (Host.normalize ~raw:0.5 ~before:n ~after:n) 0.5;
  (* a host twice as slow doubles both kernel and sample: normalized away *)
  close "slow host" (Host.normalize ~raw:1.0 ~before:(2. *. n) ~after:(2. *. n)) 0.5;
  (* the bracket is the mean of the kernel before and after *)
  close "mean bracket" (Host.scale ~before:n ~after:(3. *. n)) 0.5;
  (* the kernel measures something and the guard accounts for every window *)
  let g = Host.guard () in
  let _, s = Host.measure g (fun () -> Host.compute 10_000) in
  check "two windows" (g.Host.windows = 2);
  check "positive kernel" (s.Host.ref_s > 0.);
  check "positive sample" (s.Host.raw > 0. && s.Host.norm > 0.);
  check "bg frac bounded" (Host.bg_cpu_frac g >= 0.)

let percentile_rule () =
  (* p90 needs at least 10 samples beyond it: 100 samples is the minimum *)
  check "100 samples: 10 beyond" (Stats.beyond ~pct:90 100 = 10);
  check "99 samples: 9 beyond" (Stats.beyond ~pct:90 99 = 9);
  check "150 samples: 15 beyond" (Stats.beyond ~pct:90 150 = 15);
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  close "p90 of 1..100" (Stats.percentile ~pct:90 a) 90.;
  close "p50 of 1..100" (Stats.percentile ~pct:50 a) 50.;
  (match Stats.percentile ~pct:90 (Array.sub a 0 99) with
  | _ -> failwith "p90 of 99 samples must be refused"
  | exception Invalid_argument _ -> ());
  close "median odd" (Stats.median [| 3.; 1.; 2. |]) 2.;
  close "median even" (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5

let self_time () =
  let sp id parent name start stop = { Spans.id; parent; name; job = 0; start; stop } in
  (* root [0,10] with overlapping children [1,4] and [3,6] and a nested
     grandchild that must not be subtracted from the root *)
  let spans =
    [
      sp 0 (-1) "job" 0. 10.;
      sp 1 0 "a" 1. 4.;
      sp 2 0 "b" 3. 6.;
      sp 3 2 "c" 3.5 5.;
      sp 4 0 "a" 8. 12.;
    ]
  in
  let self = Spans.self_times spans in
  let of_id i = snd (List.find (fun (s, _) -> s.Spans.id = i) self) in
  (* children cover [1,6] and [8,10] (clipped): 7 of 10 *)
  close "root self" (of_id 0) 3.;
  close "leaf self" (of_id 1) 3.;
  close "parent self" (of_id 2) 1.5;
  close "union" (Spans.union_length ~lo:0. ~hi:10. [ (1., 4.); (3., 6.); (8., 12.) ]) 7.;
  let by_name = Spans.self_by_name spans in
  close "by name" (List.assoc "a" by_name) 7.;
  check "first-seen order" (List.map fst by_name = [ "job"; "a"; "b"; "c" ]);
  (* recording keeps the parent chain *)
  let t = Spans.create () in
  t.Spans.enabled <- true;
  Spans.with_span t "outer" (fun () -> Spans.with_span t "inner" ignore);
  match Spans.spans t with
  | [ inner; outer ] ->
    check "parent link" (inner.Spans.parent = outer.Spans.id && outer.Spans.parent = -1)
  | _ -> failwith "expected two spans"

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n" name)
    [ ("normalizer", normalizer); ("percentile rule", percentile_rule); ("self time", self_time) ]
