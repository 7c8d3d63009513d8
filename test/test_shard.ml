(* Equivalence of the sharded product exploration and sharded checker against
   the materialized Compose/Sat pipeline: state numbering, labels, adjacency
   order, blocking set, and verdicts must be identical for every shard count,
   worker count, and memory budget. *)

module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Sat = Mechaml_mc.Sat
module Shardsat = Mechaml_mc.Shardsat
module Ctl = Mechaml_logic.Ctl
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Families = Mechaml_scenarios.Families
open Helpers

let inputs = [ "a"; "b" ]

let outputs = [ "x"; "y" ]

let machine seed = Families.random_machine ~seed ~states:(4 + (seed mod 5)) ~inputs ~outputs

let context seed =
  Families.random_context ~seed ~states:(6 + (seed mod 7)) ~legacy_inputs:inputs
    ~legacy_outputs:outputs

(* the sharded structure must reproduce the materialized product exactly:
   same numbering (checked through labels and initial ids), same adjacency
   lists in the same order, same blocking set *)
let check_structure product sp =
  let auto = product.Compose.auto in
  let n = Automaton.num_states auto in
  check_int "states" n (Shard.num_states sp);
  check_int "transitions" (Automaton.num_transitions auto) (Shard.num_transitions sp);
  Alcotest.(check (list int)) "initial" auto.Automaton.initial (Shard.initial sp);
  let labels = Shard.labels sp in
  for s = 0 to n - 1 do
    if not (Mechaml_util.Bitset.equal (Automaton.label auto s) labels.(s)) then
      Alcotest.failf "label mismatch at state %d" s
  done;
  let row = Automaton.Csr.row auto and dst = Automaton.Csr.dst auto in
  let owner = Shard.owner sp and local = Shard.local sp in
  for s = 0 to n - 1 do
    let v = Shard.view sp owner.(s) in
    let m = local.(s) in
    check_int "member" s v.Shard.members.(m);
    let deg = row.(s + 1) - row.(s) in
    if v.Shard.row.(m + 1) - v.Shard.row.(m) <> deg then
      Alcotest.failf "degree mismatch at state %d" s;
    for e = 0 to deg - 1 do
      if v.Shard.dst.(v.Shard.row.(m) + e) <> dst.(row.(s) + e) then
        Alcotest.failf "adjacency mismatch at state %d edge %d" s e
    done;
    if Bitvec.get (Shard.blocking sp) s <> (row.(s + 1) = row.(s)) then
      Alcotest.failf "blocking mismatch at state %d" s
  done

(* full satisfaction sets, not just the initial-state verdicts *)
let check_verdicts ?(formulas = structural_formulas) product sp =
  let env = Sat.create product.Compose.auto in
  let senv = Shardsat.create sp in
  List.iter
    (fun f ->
      let name = Fmt.to_to_string Ctl.pp f in
      if not (Bitvec.equal (Sat.sat_vec env f) (Shardsat.sat_vec senv f)) then
        Alcotest.failf "sat set mismatch on %s" name;
      if Sat.holds_initially env f <> Shardsat.holds_initially senv f then
        Alcotest.failf "verdict mismatch on %s" name;
      if Sat.failing_initial env f <> Shardsat.failing_initial senv f then
        Alcotest.failf "failing-initial mismatch on %s" name)
    formulas

(* [on_explored] runs right after the build, before any check *)
let scenario ?pair ?(on_explored = ignore) ~seed ~config () =
  let left, right =
    match pair with Some p -> p | None -> (machine seed, context (seed + 17))
  in
  let formulas = if pair = None then structural_formulas else mesh_formulas in
  let product = Compose.parallel left right in
  let sp = Shard.explore ~config left right in
  Fun.protect
    ~finally:(fun () -> Shard.close sp)
    (fun () ->
      on_explored sp;
      check_structure product sp;
      check_verdicts ~formulas product sp)

let mesh = mesh_pair ~w:23 ~h:16

let equivalence_tests =
  List.concat_map
    (fun shards ->
      List.concat_map
        (fun seed ->
          [
            test
              (Printf.sprintf "seed %d, %d shard(s)" seed shards)
              (scenario ~seed ~config:(Shard.config ~shards ()));
          ])
        [ 1; 2; 3; 4; 5 ])
    [ 1; 2; 8 ]
  @ List.map
      (fun shards ->
        test
          (Printf.sprintf "mesh 23x16, %d shard(s)" shards)
          (scenario ~pair:mesh ~seed:0 ~config:(Shard.config ~shards ())))
      [ 1; 2; 8 ]

let spill_tests =
  [
    test "tiny budget forces spills without changing anything" (fun () ->
        let before = Segment.total_spills () in
        (* a 1 KiB budget is far below the mesh's CSR segments, so the build
           itself must spill; the checks then run against spilled segments
           and spilled sat sets *)
        scenario ~pair:mesh ~seed:0
          ~on_explored:(fun _ ->
            check_bool "spills engaged" true (Segment.total_spills () > before))
          ~config:(Shard.config ~shards:4 ~mem_budget:1024 ())
          ());
    test "spill directory is removed on close" (fun () ->
        let dir = Filename.temp_file "mechashard-test" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        scenario ~seed:4 ~config:(Shard.config ~shards:4 ~mem_budget:1024 ~spill_dir:dir ()) ();
        check_bool "no leftovers" true (Sys.readdir dir = [||]);
        Unix.rmdir dir);
    test "two worker domains produce the identical product" (fun () ->
        (* explicit workers:2 exercises the parallel expansion path even on
           single-core runners (domains timeshare) *)
        scenario ~seed:5 ~config:(Shard.config ~shards:4 ~workers:2 ()) ();
        scenario ~seed:6 ~config:(Shard.config ~shards:8 ~workers:2 ~mem_budget:2048 ()) ());
    test "corrupt spill file raises Spill_error, never a wrong answer" (fun () ->
        let dir = Filename.temp_file "mechashard-test" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        let left = machine 7 and right = context 24 in
        let sp =
          Shard.explore
            ~config:(Shard.config ~shards:2 ~mem_budget:1 ~spill_dir:dir ())
            left right
        in
        Fun.protect
          ~finally:(fun () ->
            Shard.close sp;
            (try
               Array.iter
                 (fun f ->
                   let p = Filename.concat dir f in
                   if Sys.is_directory p then begin
                     Array.iter (fun g -> Sys.remove (Filename.concat p g)) (Sys.readdir p);
                     Unix.rmdir p
                   end
                   else Sys.remove p)
                 (Sys.readdir dir)
             with Sys_error _ -> ());
            Unix.rmdir dir)
          (fun () ->
            let sub =
              match Segment.spill_dir (Shard.manager sp) with
              | Some d -> d
              | None -> Alcotest.fail "expected a spill directory"
            in
            Array.iter
              (fun f ->
                if Filename.check_suffix f ".seg" then begin
                  let p = Filename.concat sub f in
                  let full = Bytes.of_string (In_channel.with_open_bin p In_channel.input_all) in
                  let i = Bytes.length full - 1 in
                  Bytes.set full i (Char.chr (Char.code (Bytes.get full i) lxor 0x5a));
                  Out_channel.with_open_bin p (fun oc -> Out_channel.output_bytes oc full)
                end)
              (Sys.readdir sub);
            let senv = Shardsat.create sp in
            match
              List.iter (fun f -> ignore (Shardsat.holds_initially senv f)) structural_formulas
            with
            | exception Segment.Spill_error _ -> ()
            | () ->
              (* nothing was evicted after all (budget raced the sizes) — the
                 verdicts must then still be the correct ones *)
              check_verdicts (Compose.parallel left right) sp));
  ]

(* -- view identity across transports and budgets ------------------------- *)

(* Everything a sharded product exposes, every shard's view included. *)
type snapshot = {
  owner : int array;
  local : int array;
  labels : int array;
  blocking : Bitvec.t;
  views : Shard.view array;
}

let snapshot sp =
  {
    owner = Shard.owner sp;
    local = Shard.local sp;
    labels = Array.map Mechaml_util.Bitset.to_int (Shard.labels sp);
    blocking = Bitvec.copy (Shard.blocking sp);
    views = Array.init (Shard.shards sp) (Shard.view sp);
  }

let same_snapshot what a b =
  let same name x y = if x <> y then Alcotest.failf "%s: %s differs" what name in
  same "owner" a.owner b.owner;
  same "local" a.local b.local;
  same "labels" a.labels b.labels;
  if not (Bitvec.equal a.blocking b.blocking) then Alcotest.failf "%s: blocking differs" what;
  Array.iteri
    (fun k (v : Shard.view) ->
      let w = b.views.(k) in
      same (Printf.sprintf "members of shard %d" k) v.Shard.members w.Shard.members;
      same (Printf.sprintf "row of shard %d" k) v.Shard.row w.Shard.row;
      same (Printf.sprintf "dst of shard %d" k) v.Shard.dst w.Shard.dst;
      same (Printf.sprintf "prow of shard %d" k) v.Shard.prow w.Shard.prow;
      same (Printf.sprintf "psrc of shard %d" k) v.Shard.psrc w.Shard.psrc)
    a.views

let torus = torus_pair ~n:5 ~h:3 ~steps:[| 1; 2; 1; 1 |]

(* Per shard count, the inline default, [~workers:1] (inline too) and a
   two-domain crew ([~workers:2]), each with no budget and with one
   so tight that every segment spills, must expose the same product as the
   unbudgeted default — and that one must be [Compose.parallel]'s. *)
let identity_tests =
  List.concat_map
    (fun (label, (left, right)) ->
      let product = Compose.parallel left right in
      List.map
        (fun shards ->
          test (Printf.sprintf "%s, %d shard(s): default, workers 1/2, budgets" label shards)
            (fun () ->
              let run ?workers ?mem_budget ?(on_explored = ignore) () =
                let sp =
                  Shard.explore ~config:(Shard.config ~shards ?workers ?mem_budget ()) left right
                in
                Fun.protect
                  ~finally:(fun () -> Shard.close sp)
                  (fun () ->
                    on_explored sp;
                    (snapshot sp, Shard.spills sp))
              in
              let reference, _ = run ~on_explored:(check_structure product) () in
              List.iter
                (fun (workers, wname) ->
                  List.iter
                    (fun (mem_budget, bname) ->
                      let snap, spills = run ?workers ?mem_budget () in
                      let what = Printf.sprintf "%s, %s" wname bname in
                      same_snapshot what reference snap;
                      if mem_budget <> None && spills = 0 then
                        Alcotest.failf "%s: the tight budget never spilled" what)
                    [ (None, "no budget"); (Some 1024, "1 KiB budget") ])
                [ (None, "default"); (Some 1, "workers 1"); (Some 2, "workers 2") ]))
        [ 1; 3; 8 ])
    [ ("torus 5^4x3", torus); ("mesh 23x16", mesh) ]

(* Where levels run: inline by default and with [~workers:1], on the crew
   for every level with [~workers:2] — as counted by
   [mc_shard_crew_levels_total] against [mc_shard_build_rounds_total]. *)
let fanout_tests =
  let module Metrics = Mechaml_obs.Metrics in
  let crew = Metrics.counter ~help:"" "mc_shard_crew_levels_total" in
  let rounds = Metrics.counter ~help:"" "mc_shard_build_rounds_total" in
  [
    test "default and workers 1 inline, workers 2 on the crew" (fun () ->
        let was = Metrics.enabled () in
        Metrics.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Metrics.set_enabled was)
          (fun () ->
            let left, right = torus in
            List.iter
              (fun (workers, all_crew) ->
                let c0 = Metrics.counter_value crew and r0 = Metrics.counter_value rounds in
                Shard.close (Shard.explore ~config:(Shard.config ~shards:3 ?workers ()) left right);
                let levels = Metrics.counter_value rounds - r0 in
                let crewed = Metrics.counter_value crew - c0 in
                Alcotest.(check bool) "some rounds" true (levels > 0);
                Alcotest.(check int) "crew levels" (if all_crew then levels else 0) crewed)
              [ (None, false); (Some 1, false); (Some 2, true) ]));
  ]

let () =
  Alcotest.run "shard"
    [
      ("equivalence", equivalence_tests);
      ("spill", spill_tests);
      ("identity", identity_tests);
      ("fanout", fanout_tests);
    ]
