(* Distributed sharding equivalence: a worker-process fleet (here: in-process
   [Distworker] instances behind real sockets, i.e. [Connect] mode with the
   full wire stack) must reproduce the materialized Compose/Sat pipeline —
   numbering, labels, adjacency order, blocking set and every verdict —
   byte-identically for every worker count, and keep doing so when a worker
   crashes mid-build or after the build. *)

module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Sat = Mechaml_mc.Sat
module Ctl = Mechaml_logic.Ctl
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Families = Mechaml_scenarios.Families
module Distshard = Mechaml_dist.Distshard
module Distsat = Mechaml_dist.Distsat
module Distworker = Mechaml_dist.Distworker
module Wire = Mechaml_wire.Shardwire
open Helpers

let inputs = [ "a"; "b" ]

let outputs = [ "x"; "y" ]

let machine seed = Families.random_machine ~seed ~states:(4 + (seed mod 5)) ~inputs ~outputs

let context seed =
  Families.random_context ~seed ~states:(6 + (seed mod 7)) ~legacy_inputs:inputs
    ~legacy_outputs:outputs

let sock_path =
  let c = ref 0 in
  fun () ->
    incr c;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mechadist-t-%d-%d.sock" (Unix.getpid ()) !c)

let with_fleet n f =
  let handles = List.init n (fun _ -> Distworker.start (Wire.Unix_sock (sock_path ()))) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun h -> try Distworker.stop h with _ -> ()) handles)
    (fun () ->
      f handles
        (List.map (fun h -> Wire.addr_to_string (Distworker.addr h)) handles))

let dist_config ?mem_budget ?spill_dir ~shards addrs =
  Shard.config ~shards ?mem_budget ?spill_dir
    ~distribution:(Shard.distribution ~deadline_s:60. (Shard.Connect addrs))
    ()

let check_structure product dp =
  let auto = product.Compose.auto in
  let n = Automaton.num_states auto in
  check_int "states" n (Distshard.num_states dp);
  check_int "transitions" (Automaton.num_transitions auto) (Distshard.num_transitions dp);
  Alcotest.(check (list int)) "initial" auto.Automaton.initial (Distshard.initial dp);
  let labels = Distshard.labels dp in
  for s = 0 to n - 1 do
    if not (Mechaml_util.Bitset.equal (Automaton.label auto s) labels.(s)) then
      Alcotest.failf "label mismatch at state %d" s
  done;
  let row = Automaton.Csr.row auto and dst = Automaton.Csr.dst auto in
  let owner = Distshard.owner dp and local = Distshard.local dp in
  for s = 0 to n - 1 do
    let v = Distshard.view dp owner.(s) in
    let m = local.(s) in
    check_int "member" s v.Distshard.members.(m);
    let deg = row.(s + 1) - row.(s) in
    if v.Distshard.row.(m + 1) - v.Distshard.row.(m) <> deg then
      Alcotest.failf "degree mismatch at state %d" s;
    for e = 0 to deg - 1 do
      if v.Distshard.dst.(v.Distshard.row.(m) + e) <> dst.(row.(s) + e) then
        Alcotest.failf "adjacency mismatch at state %d edge %d" s e
    done;
    if Bitvec.get (Distshard.blocking dp) s <> (row.(s + 1) = row.(s)) then
      Alcotest.failf "blocking mismatch at state %d" s
  done

(* full satisfaction sets, not just the initial-state verdicts *)
let check_verdicts ?(formulas = structural_formulas) product dp =
  let env = Sat.create product.Compose.auto in
  let senv = Distsat.create dp in
  List.iter
    (fun f ->
      let name = Fmt.to_to_string Ctl.pp f in
      if not (Bitvec.equal (Sat.sat_vec env f) (Distsat.sat_vec senv f)) then
        Alcotest.failf "sat set mismatch on %s" name;
      if Sat.holds_initially env f <> Distsat.holds_initially senv f then
        Alcotest.failf "verdict mismatch on %s" name;
      if Sat.failing_initial env f <> Distsat.failing_initial senv f then
        Alcotest.failf "failing-initial mismatch on %s" name)
    formulas

let scenario ?pair ~seed ~shards ~workers ?mem_budget ?spill_dir ?chaos_die_after
    ?(expect_restarts = 0) () =
  with_fleet workers (fun _handles addrs ->
      let left, right =
        match pair with
        | Some p -> p
        | None -> (machine seed, context (seed + 17))
      in
      let product = Compose.parallel left right in
      let dp =
        Distshard.explore
          ~config:(dist_config ?mem_budget ?spill_dir ~shards addrs)
          ?chaos_die_after left right
      in
      Fun.protect
        ~finally:(fun () -> Distshard.close dp)
        (fun () ->
          check_structure product dp;
          check_verdicts
            ~formulas:(if pair = None then structural_formulas else mesh_formulas)
            product dp;
          if Distshard.restarts dp < expect_restarts then
            Alcotest.failf "expected >= %d worker restart(s), saw %d" expect_restarts
              (Distshard.restarts dp)))

let equivalence_tests =
  List.concat_map
    (fun (workers, shards) ->
      List.map
        (fun seed ->
          test
            (Printf.sprintf "seed %d, %d worker(s), %d shard(s)" seed workers shards)
            (scenario ~seed ~shards ~workers))
        [ 1; 2; 4 ]
      @ [
          test
            (Printf.sprintf "mesh 23x16, %d worker(s), %d shard(s)" workers shards)
            (scenario ~pair:(mesh_pair ~w:23 ~h:16) ~seed:0 ~shards ~workers);
        ])
    [ (1, 2); (2, 4); (2, 8) ]

let recovery_tests =
  [
    test "worker crash mid-build: shards re-dispatched, product identical" (fun () ->
        scenario ~seed:2 ~shards:4 ~workers:2 ~chaos_die_after:(0, 1) ~expect_restarts:1
          ());
    test "worker crash mid-build with spilling engaged" (fun () ->
        scenario ~seed:4 ~shards:4 ~workers:2 ~mem_budget:2048 ~chaos_die_after:(1, 2)
          ~expect_restarts:1 ());
    test "worker lost after the build: verdicts still byte-identical" (fun () ->
        with_fleet 2 (fun handles addrs ->
            let left = machine 3 and right = context 20 in
            let product = Compose.parallel left right in
            let dp =
              Distshard.explore ~config:(dist_config ~shards:4 addrs) left right
            in
            Fun.protect
              ~finally:(fun () -> Distshard.close dp)
              (fun () ->
                check_structure product dp;
                (* kill one worker between the build and the checks: the
                   survivor must adopt its banked segments mid-operator *)
                Distworker.stop (List.hd handles);
                check_verdicts product dp;
                check_bool "a restart was recorded" true (Distshard.restarts dp >= 1))));
  ]

let spill_tests =
  [
    test "tiny budget forces coordinator spills without changing anything" (fun () ->
        let before = Segment.total_spills () in
        scenario ~pair:(mesh_pair ~w:23 ~h:16) ~seed:0 ~shards:4 ~workers:2
          ~mem_budget:1024 ();
        check_bool "spills engaged" true (Segment.total_spills () > before));
    test "spill directory is removed on close" (fun () ->
        let dir = Filename.temp_file "mechadist-test" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        scenario ~pair:(mesh_pair ~w:23 ~h:16) ~seed:0 ~shards:4 ~workers:2
          ~mem_budget:1024 ~spill_dir:dir ();
        check_bool "no leftovers" true (Sys.readdir dir = [||]);
        Unix.rmdir dir);
  ]

let () =
  Alcotest.run "dist"
    [
      ("equivalence", equivalence_tests);
      ("recovery", recovery_tests);
      ("spill", spill_tests);
    ]
