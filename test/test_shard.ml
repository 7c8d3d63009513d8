(* Equivalence of the sharded product exploration and sharded checker against
   the materialized Compose/Sat pipeline: state numbering, labels, adjacency
   order, blocking set, and verdicts must be identical for every shard count,
   worker count, and memory budget. *)

module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Sat = Mechaml_mc.Sat
module Eval = Mechaml_mc.Eval
module Shardsat = Mechaml_mc.Shardsat
module Checker = Mechaml_mc.Checker
module Witness = Mechaml_mc.Witness
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
  let labels = Array.init (Shard.num_states sp) (Shard.label sp) in
  for s = 0 to n - 1 do
    if not (Mechaml_util.Bitset.equal (Automaton.label auto s) labels.(s)) then
      Alcotest.failf "label mismatch at state %d" s
  done;
  let owner = Shard.owner sp and local = Shard.local sp in
  for s = 0 to n - 1 do
    let v = Shard.view sp owner.(s) in
    let m = local.(s) in
    check_int "member" s v.Shard.members.(m);
    (* adjacency order, not the CSR's per-state sort by interaction id *)
    let dst = List.map (fun (t : Automaton.trans) -> t.dst) (Automaton.transitions_from auto s) in
    let lo = v.Shard.row.(m) and hi = v.Shard.row.(m + 1) in
    if Array.to_list (Array.sub v.Shard.dst lo (hi - lo)) <> dst then
      Alcotest.failf "adjacency mismatch at state %d" s;
    if Bitvec.get (Shard.blocking sp) s <> (dst = []) then
      Alcotest.failf "blocking mismatch at state %d" s
  done

(* full satisfaction sets, not just the initial-state verdicts *)
let check_verdicts ?(formulas = structural_formulas) product sp =
  let env = Sat.create product.Compose.auto in
  let senv = Shardsat.create sp in
  List.iter
    (fun f ->
      let name = Fmt.to_to_string Ctl.pp f in
      if not (Bitvec.equal (Eval.sat_vec env f) (Eval.sat_vec senv f)) then
        Alcotest.failf "sat set mismatch on %s" name;
      if Eval.holds_initially env f <> Eval.holds_initially senv f then
        Alcotest.failf "verdict mismatch on %s" name;
      if Eval.failing_initial env f <> Eval.failing_initial senv f then
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
              List.iter (fun f -> ignore (Eval.holds_initially senv f)) structural_formulas
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
    labels = Array.init (Shard.num_states sp) (fun s -> Mechaml_util.Bitset.to_int (Shard.label sp s));
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

(* Per shard count, a second unbudgeted build and one under a budget so
   tight that every segment spills must expose the same product as the
   unbudgeted default — and that one must be [Compose.parallel]'s. *)
let identity_tests =
  List.concat_map
    (fun (label, (left, right)) ->
      let product = Compose.parallel left right in
      List.map
        (fun shards ->
          test (Printf.sprintf "%s, %d shard(s): default, worst-case 1 KiB budget" label shards)
            (fun () ->
              let run ?mem_budget ?(on_explored = ignore) () =
                let sp = Shard.explore ~config:(Shard.config ~shards ?mem_budget ()) left right in
                Fun.protect
                  ~finally:(fun () -> Shard.close sp)
                  (fun () ->
                    on_explored sp;
                    (snapshot sp, Shard.spills sp))
              in
              let reference, _ = run ~on_explored:(check_structure product) () in
              List.iter
                (fun (mem_budget, what) ->
                  let snap, spills = run ?mem_budget () in
                  same_snapshot what reference snap;
                  if mem_budget <> None && spills = 0 then
                    Alcotest.failf "%s: the tight budget never spilled" what)
                [ (None, "no budget"); (Some 1024, "1 KiB budget") ]))
        [ 1; 3; 8 ])
    [ ("torus 5^4x3", torus); ("mesh 23x16", mesh) ]

(* -- derived maps ---------------------------------------------------------

   The build keeps one packed key per state and derives the owner, local
   and member maps afterwards.  They must be inverse — [members.(owner s)
   .(local s) = s] — with each shard's locals ascending in id order, and
   the sizes must count the members, for any shard count and under a
   spilling budget. *)

(* the layouts the map and witness properties run under *)
let layouts =
  [
    ("1 shard", Shard.config ());
    ("3 shards", Shard.config ~shards:3 ());
    ("8 shards", Shard.config ~shards:8 ());
    ("8 shards, spilling", Shard.config ~shards:8 ~mem_budget:1 ());
  ]

let derived_maps_prop seed =
  let rng = Prng.create ~seed in
  let left =
    random_automaton rng ~name:"l" ~inputs:[ "a"; "e" ] ~outputs:[ "x" ] ~fanout:4
      ~states:(1 + Prng.int rng 12) ()
  in
  let right =
    random_automaton rng ~name:"r" ~inputs:[ "x" ] ~outputs:[ "a"; "z" ] ~fanout:4
      ~states:(1 + Prng.int rng 12) ()
  in
  let product = Compose.parallel left right in
  List.iter
    (fun (what, config) ->
      let sp = Shard.explore ~config left right in
      Fun.protect
        ~finally:(fun () -> Shard.close sp)
        (fun () ->
          let fail fmt = QCheck.Test.fail_reportf ("seed %d, %s: " ^^ fmt) seed what in
          let owner = Shard.owner sp and local = Shard.local sp and sizes = Shard.sizes sp in
          let members = Array.init (Shard.shards sp) (fun k -> (Shard.view sp k).Shard.members) in
          Array.iteri
            (fun k ms ->
              if Array.length ms <> sizes.(k) then fail "shard %d has %d members, size %d" k
                  (Array.length ms) sizes.(k);
              Array.iteri
                (fun m s ->
                  if m > 0 && ms.(m - 1) >= s then fail "shard %d: locals not in id order" k;
                  if owner.(s) <> k || local.(s) <> m then fail "state %d is not member %d of %d" s m k)
                ms)
            members;
          for s = 0 to Shard.num_states sp - 1 do
            if members.(owner.(s)).(local.(s)) <> s then fail "state %d: maps not inverse" s
          done;
          check_structure product sp;
          if config.Shard.mem_budget <> None && Shard.spills sp = 0 then fail "the budget never spilled"))
    layouts;
  true

let map_tests =
  [ qcheck ~count:100 "owner/local/members are inverse, 1/3/8 shards" QCheck.small_nat derived_maps_prop ]

(* -- symbolic closures ---------------------------------------------------------

   The loop explores context ∥ closure with the closure's chaotic rows as
   escapes.  Whatever the shard count or budget, that product must be
   [Compose.parallel] of the materialized closure — states, labels,
   adjacency, and each edge's label as [Shard.io] rebuilds it — for a
   context closed over the closure's signals (one membership test per
   move) and for an open one, which leaves closure input [b] and output [y]
   unconnected. *)

let closure_configs =
  [ Shard.config (); Shard.config ~shards:3 (); Shard.config ~shards:8 ~mem_budget:1 () ]

let symbolic_closure_prop seed =
  let rng = Prng.create ~seed in
  let model = ref (model_start ()) in
  for _ = 1 to Prng.int rng 10 do
    model := grow_model rng !model
  done;
  let closure = Mechaml_core.Chaos.closure !model in
  let materialized = Mechaml_core.Chaos.materialize closure in
  let states = 1 + Prng.int rng 5 in
  List.iter
    (fun context ->
      let product = Compose.parallel context materialized in
      let auto = product.Compose.auto in
      List.iter
        (fun config ->
          let sp = Shard.explore ~config context closure in
          Fun.protect
            ~finally:(fun () -> Shard.close sp)
            (fun () ->
              let fail what s =
                QCheck.Test.fail_reportf "state %d: %s differs (seed %d)" s what seed
              in
              let n = Automaton.num_states auto in
              if Shard.num_states sp <> n || Shard.initial sp <> auto.Automaton.initial then
                fail "state count or initial set" 0;
              let succ = Shard.succ sp (Array.init n Fun.id) in
              for s = 0 to n - 1 do
                let ts = Automaton.transitions_from auto s in
                if not (Mechaml_util.Bitset.equal (Shard.label sp s) (Automaton.label auto s)) then
                  fail "label" s;
                if Array.to_list succ.(s) <> List.map (fun (t : Automaton.trans) -> t.dst) ts then
                  fail "adjacency" s;
                if Bitvec.get (Shard.blocking sp) s <> (ts = []) then fail "blocking" s;
                List.iteri
                  (fun k (t : Automaton.trans) ->
                    if Shard.io sp s k <> (t.input, t.output) then fail "an edge label" s)
                  ts
              done))
        closure_configs)
    [
      random_automaton rng ~name:"closed" ~inputs:[ "x"; "y" ] ~outputs:[ "a"; "b" ] ~states ();
      random_automaton rng ~name:"open" ~inputs:[ "x"; "e" ] ~outputs:[ "a"; "f" ] ~states ();
    ];
  true

let closure_tests =
  [
    qcheck ~count:60 "context x symbolic closure = Compose.parallel of its materialization"
      QCheck.small_nat symbolic_closure_prop;
  ]

(* -- witnesses on the sharded product ---------------------------------------

   The loop extracts its counterexamples from the [Shard.t] it checked:
   successors from the shard views, names and edge labels rebuilt from the
   pair keys.  Whatever the shard count or budget, the outcome must be the
   record [Checker.check] returns on the materialized product — run states,
   labels, explanation and [complete] — and so must the extra witnesses.
   The pairs are open on both sides: the left reads an environment input
   and the right drives an unconnected output, so the join kernel both
   binary-searches and scans. *)

let witness_formulas =
  let p = Ctl.Prop "l.p" and q = Ctl.Prop "r.p" in
  let b = Some (Ctl.bounds 1 4) in
  [
    Ctl.Ag (None, Ctl.Not q) (* EF *);
    Ctl.Not (Ctl.Eu (None, p, q)) (* EU *);
    Ctl.Af (None, Ctl.Not p) (* EG lasso *);
    Ctl.Ag (b, Ctl.Not q) (* bounded EF *);
    Ctl.Not (Ctl.Eu (b, p, q)) (* bounded EU *);
    Ctl.Af (b, Ctl.Not p) (* bounded EG *);
    Ctl.Au (None, p, q) (* not AU *);
    Ctl.deadlock_free;
    Ctl.Ax (Ctl.Not p) (* EX *);
    Ctl.Or (Ctl.Ag (None, Ctl.Not p), Ctl.Af (None, Ctl.Not q)) (* two temporal conjuncts *);
  ]

let witness_identity_prop (seed, strategy) =
  let rng = Prng.create ~seed in
  let left =
    random_automaton rng ~name:"l" ~inputs:[ "a"; "e" ] ~outputs:[ "x" ] ~fanout:4
      ~states:(1 + Prng.int rng 10) ()
  in
  let right =
    random_automaton rng ~name:"r" ~inputs:[ "x" ] ~outputs:[ "a"; "z" ] ~fanout:4
      ~states:(1 + Prng.int rng 10) ()
  in
  let auto = (Compose.parallel left right).Compose.auto in
  let reference = Sat.space auto (Sat.create auto) in
  List.iter
    (fun (what, config) ->
      let sp = Shard.explore ~config left right in
      Fun.protect
        ~finally:(fun () -> Shard.close sp)
        (fun () ->
          let env = Shardsat.create sp in
          let space = Shardsat.space sp ~sat:(Eval.sat_vec env) in
          List.iter
            (fun f ->
              let name = Ctl.to_string f in
              if Checker.check ~strategy auto f <> Checker.check_space ~strategy space [ f ] then
                QCheck.Test.fail_reportf "seed %d, %s: outcome differs on %s" seed what name;
              if
                Checker.more_witnesses ~limit:4 reference f
                <> Checker.more_witnesses ~limit:4 space f
              then QCheck.Test.fail_reportf "seed %d, %s: more_witnesses differ on %s" seed what name)
            witness_formulas;
          if config.Shard.mem_budget <> None && Shard.spills sp = 0 then
            QCheck.Test.fail_reportf "seed %d, %s: the budget never spilled" seed what))
    layouts;
  true

let witness_tests =
  [
    qcheck ~count:150 "Checker on the Shard.t = Checker.check on Compose.parallel, 1/3/8 shards"
      QCheck.(pair (int_range 0 100_000) (oneofl Witness.[ Bfs_shortest; Dfs_first ]))
      witness_identity_prop;
  ]

(* -- the worklist kernel against a sweep-to-convergence reference -------- *)

module Worklist = Mechaml_mc.Worklist

let kinds = Mechaml_mc.Eval.[ (Ef, "EF"); (Eu, "EU"); (Eg, "EG"); (Au, "AU") ]

(* The fixpoint by repeated whole-space sweeps over the forward adjacency. *)
let reference ~row ~dst ~blocking (kind : Mechaml_mc.Eval.fix) ~init ~guard =
  let n = Bitvec.length init in
  let x = Bitvec.to_bool_array init in
  let succ s p =
    let ok = ref false in
    for e = row.(s) to row.(s + 1) - 1 do
      if p x.(dst.(e)) then ok := true
    done;
    !ok
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      let stop = Bitvec.get blocking s in
      let v =
        match kind with
        | Ef | Eu -> x.(s) || (Bitvec.get guard s && succ s Fun.id)
        | Eg -> x.(s) && (stop || succ s Fun.id)
        | Au -> x.(s) || (Bitvec.get guard s && (not stop) && not (succ s not))
      in
      if v <> x.(s) then begin
        x.(s) <- v;
        changed := true
      end
    done
  done;
  Bitvec.of_bool_array x

(* Predecessors of each state, once per transition. *)
let predecessors ~row ~dst n =
  let preds = Array.make n [] in
  for s = n - 1 downto 0 do
    for e = row.(s + 1) - 1 downto row.(s) do
      preds.(dst.(e)) <- s :: preds.(dst.(e))
    done
  done;
  preds

(* CSR of [adj] over the sources [ids], in order. *)
let csr adj ids =
  let row = Array.make (List.length ids + 1) 0 in
  List.iteri (fun m g -> row.(m + 1) <- row.(m) + List.length (adj g)) ids;
  (row, Array.of_list (List.concat_map adj ids))

(* Random states-to-blocks assignment and the views it induces: members
   ascending, forward and predecessor edges once per transition. *)
let partition rng ~row ~dst ~blocks n =
  let owner = Array.init n (fun _ -> Prng.int rng blocks) in
  let members =
    Array.init blocks (fun k -> List.filter (fun g -> owner.(g) = k) (List.init n Fun.id))
  in
  let local = Array.make n 0 in
  Array.iter (List.iteri (fun m g -> local.(g) <- m)) members;
  let succs g = List.init (row.(g + 1) - row.(g)) (fun e -> dst.(row.(g) + e)) in
  let preds = predecessors ~row ~dst n in
  let views =
    Array.map
      (fun ms ->
        let row, dst = csr succs ms in
        let prow, psrc = csr (Array.get preds) ms in
        { Shard.members = Array.of_list ms; row; dst; prow; psrc })
      members
  in
  (owner, local, Array.map List.length members, views)

(* One fixpoint split between two simulated processes: [A] owns the even
   blocks, [B] the odd ones; each drains until quiet, then the items each
   emitted are fed to the other, until neither emits.  Every state's bit
   comes from its owner. *)
let two_process ~space ~owner kind ~init ~guard =
  let side parity =
    let outbox = ref [] in
    ( Worklist.start
        (space (fun k -> k mod 2 = parity))
        kind ~init ~guard
        ~emit:(fun p -> outbox := p :: !outbox),
      outbox )
  in
  let ra, outa = side 0 and rb, outb = side 1 in
  let rec exchange () =
    while Worklist.round ra > 0 do () done;
    while Worklist.round rb > 0 do () done;
    let to_a = List.rev !outb and to_b = List.rev !outa in
    outa := [];
    outb := [];
    if to_a <> [] || to_b <> [] then begin
      List.iter (Worklist.feed ra) to_a;
      List.iter (Worklist.feed rb) to_b;
      exchange ()
    end
  in
  exchange ();
  Bitvec.init (Bitvec.length init) (fun g ->
      Bitvec.get (Worklist.result (if owner.(g) mod 2 = 0 then ra else rb)) g)

let kernel_tests =
  [
    qcheck ~count:300 "EF/EU/EG/AU and agg match the sweep reference, 1/3/8 blocks, 2 processes"
      QCheck.(pair (int_range 0 100_000) (oneofl [ 1; 3; 8 ]))
      (fun (seed, blocks) ->
        let rng = Prng.create ~seed in
        let auto =
          random_automaton rng ~name:"k" ~inputs:[ "a" ] ~outputs:[ "x" ] ~fanout:3
            ~states:(1 + Prng.int rng 40) ()
        in
        let n = Automaton.num_states auto in
        let row = Automaton.Csr.row auto and dst = Automaton.Csr.dst auto in
        let blocking = Bitvec.init n (fun s -> row.(s + 1) = row.(s)) in
        let random_set () = Bitvec.init n (fun _ -> Prng.int rng 3 > 0) in
        let owner, local, sizes, views = partition rng ~row ~dst ~blocks n in
        (* the blocks [owns] picks are this process's *)
        let space owns =
          Worklist.blocks ~blocking ~owner ~local ~sizes ~owned:(Array.init blocks owns)
            (Array.get views)
        in
        let prow, psrc = csr (Array.get (predecessors ~row ~dst n)) (List.init n Fun.id) in
        let flat = Worklist.flat ~blocking ~row ~dst ~prow ~psrc in
        let sharded = space (fun _ -> true) in
        let same what a b =
          if not (Bitvec.equal a b) then QCheck.Test.fail_reportf "%s differs (n = %d)" what n
        in
        List.iter
          (fun (kind, name) ->
            let init = random_set () in
            let guard =
              match kind with Mechaml_mc.Eval.Eu | Au -> Some (random_set ()) | Ef | Eg -> None
            in
            let want =
              reference ~row ~dst ~blocking kind ~init
                ~guard:(Option.value guard ~default:(Bitvec.create_full n))
            in
            same (name ^ ", flat") want (Worklist.fixpoint flat kind ~init ~guard);
            same (name ^ ", all blocks owned") want (Worklist.fixpoint sharded kind ~init ~guard);
            same (name ^ ", two processes") want
              (two_process ~space ~owner kind ~init ~guard))
          kinds;
        List.iter
          (fun forall ->
            let x = random_set () in
            let want =
              Bitvec.init n (fun s ->
                  let hits = ref 0 in
                  for e = row.(s) to row.(s + 1) - 1 do
                    if Bitvec.get x dst.(e) then incr hits
                  done;
                  if forall then !hits = row.(s + 1) - row.(s) else !hits > 0)
            in
            let split =
              List.map
                (fun parity -> Worklist.agg (space (fun k -> k mod 2 = parity)) ~forall x)
                [ 0; 1 ]
            in
            let name = if forall then "agg forall" else "agg exists" in
            same (name ^ ", flat") want (Worklist.agg flat ~forall x);
            same (name ^ ", all blocks owned") want (Worklist.agg sharded ~forall x);
            same (name ^ ", two processes") want
              (List.fold_left Bitvec.logor (Bitvec.create n) split))
          [ true; false ];
        true);
  ]

let () =
  Alcotest.run "shard"
    [
      ("equivalence", equivalence_tests);
      ("spill", spill_tests);
      ("identity", identity_tests);
      ("maps", map_tests);
      ("closure", closure_tests);
      ("witness", witness_tests);
      ("kernel", kernel_tests);
    ]
