module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Bitset = Mechaml_util.Bitset
open Helpers

let simple () =
  automaton ~inputs:[ "go"; "stop" ] ~outputs:[ "ok" ]
    ~states:[ ("idle", [ "p.idle" ]); ("busy", [ "p.busy" ]) ]
    ~trans:[ ("idle", [ "go" ], [ "ok" ], "busy"); ("busy", [ "stop" ], [], "idle") ]
    ~initial:[ "idle" ] ()

let unit_tests =
  [
    test "builder constructs states in first-mention order" (fun () ->
        let m = simple () in
        check_int "2 states" 2 (Automaton.num_states m);
        check_string "state 0" "idle" (Automaton.state_name m 0);
        check_string "state 1" "busy" (Automaton.state_name m 1);
        check_int "2 transitions" 2 (Automaton.num_transitions m));
    test "state_index roundtrips" (fun () ->
        let m = simple () in
        check_int "busy" 1 (Automaton.state_index m "busy");
        Alcotest.(check (option int)) "missing" None (Automaton.state_index_opt m "zzz"));
    test "labels" (fun () ->
        let m = simple () in
        check_bool "idle has p.idle" true (Automaton.has_prop m 0 "p.idle");
        check_bool "idle lacks p.busy" false (Automaton.has_prop m 0 "p.busy");
        check_bool "unknown prop is false" false (Automaton.has_prop m 0 "nope"));
    test "accepts and successors" (fun () ->
        let m = simple () in
        let go = Universe.set_of_names m.Automaton.inputs [ "go" ] in
        let ok = Universe.set_of_names m.Automaton.outputs [ "ok" ] in
        let empty = Mechaml_util.Bitset.empty in
        check_bool "accepts go/ok" true (Automaton.accepts m 0 go ok);
        check_bool "rejects go/-" false (Automaton.accepts m 0 go empty);
        Alcotest.(check (list int)) "successor" [ 1 ] (Automaton.successors m 0 go ok));
    test "blocking detection" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[] ~trans:[ ("a", [], [], "b") ] ~initial:[ "a" ] ()
        in
        check_bool "a not blocking" false (Automaton.is_blocking m 0);
        check_bool "b blocking" true (Automaton.is_blocking m 1));
    test "determinism notions" (fun () ->
        let det = simple () in
        check_bool "deterministic" true (Automaton.deterministic det);
        check_bool "input-deterministic" true (Automaton.input_deterministic det);
        let nondet =
          automaton ~inputs:[ "x" ] ~outputs:[ "y" ]
            ~trans:[ ("a", [ "x" ], [], "a"); ("a", [ "x" ], [ "y" ], "a") ]
            ~initial:[ "a" ] ()
        in
        (* Two different responses to the same input: deterministic in the
           paper's (s,A,B) sense, but not input-deterministic. *)
        check_bool "paper-deterministic" true (Automaton.deterministic nondet);
        check_bool "not input-deterministic" false (Automaton.input_deterministic nondet);
        let dup =
          automaton ~inputs:[ "x" ] ~outputs:[]
            ~trans:[ ("a", [ "x" ], [], "a"); ("a", [ "x" ], [], "b"); ("b", [], [], "b") ]
            ~initial:[ "a" ] ()
        in
        check_bool "same (s,A,B) twice" false (Automaton.deterministic dup));
    test "composable and orthogonal" (fun () ->
        let m = simple () in
        let peer =
          automaton ~name:"peer" ~inputs:[ "ok" ] ~outputs:[ "go"; "stop" ]
            ~trans:[ ("s", [], [], "s") ] ~initial:[ "s" ] ()
        in
        check_bool "composable" true (Automaton.composable m peer);
        check_bool "not orthogonal (connected)" false (Automaton.orthogonal m peer));
    test "builder validates signals" (fun () ->
        let b = Automaton.Builder.create ~name:"x" ~inputs:[ "a" ] ~outputs:[] () in
        match Automaton.Builder.add_trans b ~src:"s" ~inputs:[ "nope" ] ~dst:"s" () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "builder requires initial state" (fun () ->
        let b = Automaton.Builder.create ~name:"x" ~inputs:[] ~outputs:[] () in
        ignore (Automaton.Builder.add_state b "s");
        match Automaton.Builder.build b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "restrict projects signals and merges duplicates" (fun () ->
        let m =
          automaton ~inputs:[ "a"; "hidden" ] ~outputs:[ "o" ]
            ~trans:
              [
                ("s", [ "a"; "hidden" ], [ "o" ], "t");
                ("s", [ "a" ], [ "o" ], "t");
                ("t", [], [], "t");
              ]
            ~initial:[ "s" ] ()
        in
        let restricted =
          Automaton.restrict m
            ~inputs:(Universe.of_list [ "a" ])
            ~outputs:(Universe.of_list [ "o" ])
            ~props:Universe.empty
        in
        (* both transitions collapse to a/o after hiding "hidden" *)
        check_int "merged" 1 (List.length (Automaton.transitions_from restricted 0)));
    test "relabel replaces universe" (fun () ->
        let m = simple () in
        let props = Universe.of_list [ "q" ] in
        let m' = Automaton.relabel m ~props (fun _ -> Universe.set_of_names props [ "q" ]) in
        check_bool "all labelled q" true (Automaton.has_prop m' 1 "q"));
    test "rename and map_states" (fun () ->
        let m = Automaton.rename (simple ()) "other" in
        check_string "renamed" "other" m.Automaton.name;
        let m' = Automaton.map_states m ~f:(fun s -> "S" ^ string_of_int s) in
        check_string "mapped" "S0" (Automaton.state_name m' 0));
    test "pp renders the state names" (fun () ->
        let s = Format.asprintf "%a" Automaton.pp (simple ()) in
        let contains hay needle =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        check_bool "mentions idle" true (contains s "idle");
        check_bool "mentions busy" true (contains s "busy"));
  ]

(* [Automaton.digest] names an automaton by content alone: the campaign memo
   keys checks by it, so it must be canonical — blind to the lazily derived
   index and to how the value was built, and sensitive to every label and
   transition. *)
let digest_tests =
  let ring () =
    Mechaml_scenarios.Families.random_machine ~seed:3 ~states:6 ~inputs:[ "i0"; "i1" ]
      ~outputs:[ "o0" ]
  in
  [
    test "digest is equal before and after the index is forced" (fun () ->
        let fresh = ring () and forced = ring () in
        let before = Automaton.digest fresh in
        ignore (Automaton.Csr.row forced);
        ignore (Automaton.state_index_opt forced "nope");
        ignore (Mechaml_mc.Sat.create forced);
        check_string "fresh vs forced" before (Automaton.digest forced);
        (* marshalling the whole value, by contrast, sees the forced index *)
        check_bool "index changed the marshalled bytes" true
          (Mechaml_engine.Cache.digest fresh <> Mechaml_engine.Cache.digest forced));
    test "digest changes with one label, one transition, the name" (fun () ->
        let m = simple () in
        let d = Automaton.digest m in
        let relabelled =
          Automaton.relabel m ~props:m.Automaton.props (fun s ->
              if s = 1 then Universe.set_of_names m.Automaton.props [ "p.idle" ]
              else m.Automaton.labels.(s))
        in
        check_bool "label" true (d <> Automaton.digest relabelled);
        let retargeted =
          automaton ~inputs:[ "go"; "stop" ] ~outputs:[ "ok" ]
            ~states:[ ("idle", [ "p.idle" ]); ("busy", [ "p.busy" ]) ]
            ~trans:[ ("idle", [ "go" ], [ "ok" ], "busy"); ("busy", [ "stop" ], [], "busy") ]
            ~initial:[ "idle" ] ()
        in
        check_bool "transition" true (d <> Automaton.digest retargeted);
        let relabelled_io =
          automaton ~inputs:[ "go"; "stop" ] ~outputs:[ "ok" ]
            ~states:[ ("idle", [ "p.idle" ]); ("busy", [ "p.busy" ]) ]
            ~trans:[ ("idle", [ "go" ], [], "busy"); ("busy", [ "stop" ], [], "idle") ]
            ~initial:[ "idle" ] ()
        in
        check_bool "interaction" true (d <> Automaton.digest relabelled_io);
        check_bool "name" true (d <> Automaton.digest (Automaton.rename m "other"));
        check_bool "state names" true
          (d <> Automaton.digest (Automaton.map_states m ~f:(fun s -> "S" ^ string_of_int s)));
        check_bool "signals" true
          (d
          <> Automaton.digest
               (Automaton.map_signals m ~inputs:(fun s -> s ^ "'") ~outputs:Fun.id));
        check_string "rebuilt" d (Automaton.digest (simple ())));
  ]

(* The sorted CSR view the join kernel binary-searches: per state, the
   segment of [Csr.inter] is the adjacency list stably sorted by interaction
   id — sorted, equal ids in adjacency order, and each [adj_inter] id the
   transition's own label. *)
let csr_is_stably_sorted (m : Automaton.t) =
  let row = Automaton.Csr.row m and adj = Automaton.Csr.adj_inter m in
  let inter = Automaton.Csr.inter m and dst = Automaton.Csr.dst m in
  let ok = ref true in
  for s = 0 to Automaton.num_states m - 1 do
    let adjacency =
      List.mapi
        (fun i (t : Automaton.trans) ->
          let id = adj.(row.(s) + i) in
          if Automaton.interaction_io m id <> (t.input, t.output) then ok := false;
          (id, t.dst, t.input, t.output))
        (Automaton.transitions_from m s)
    in
    let expected = List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) adjacency in
    let segment =
      List.init (row.(s + 1) - row.(s)) (fun i ->
          let k = row.(s) + i in
          let input, output = Automaton.interaction_io m inter.(k) in
          (inter.(k), dst.(k), input, output))
    in
    if segment <> expected then ok := false
  done;
  !ok

let narrow rng ~name =
  random_automaton rng ~name ~inputs:[ "a"; "b"; "c" ] ~outputs:[ "x"; "y" ] ~fanout:12
    ~states:(1 + Prng.int rng 8) ()

(* 40 + 24 signals do not fit one word: labels intern as structural pairs. *)
let wide rng ~name =
  random_automaton rng ~name
    ~inputs:(List.init 40 (Printf.sprintf "i%d"))
    ~outputs:(List.init 24 (Printf.sprintf "o%d"))
    ~out_bits:(1 + Prng.int rng 24) ~fanout:12 ~states:(1 + Prng.int rng 8) ()

(* Every relation query of an escaped automaton answers as its
   materialization does, and its transition count is the materialized
   one. *)
let escapes_answer_like_materialized rng =
  let m = with_random_escapes rng (narrow rng ~name:"m") in
  let x = Mechaml_core.Chaos.materialize m in
  let labels =
    List.concat_map
      (fun a -> List.init 4 (fun b -> (Bitset.of_int_unsafe a, Bitset.of_int_unsafe b)))
      (List.init 8 Fun.id)
  in
  let states = List.init (Automaton.num_states m) Fun.id in
  Automaton.num_transitions m = Automaton.num_transitions x
  && List.for_all
       (fun s ->
         Automaton.is_blocking m s = Automaton.is_blocking x s
         && List.for_all
              (fun (a, b) ->
                Automaton.accepts m s a b = Automaton.accepts x s a b
                && Automaton.successors m s a b = Automaton.successors x s a b)
              labels)
       states
  && Automaton.deterministic m = Automaton.deterministic x
  && Automaton.input_deterministic m = Automaton.input_deterministic x

let csr_tests =
  [
    qcheck ~count:200 "CSR segments are stably sorted by id, fresh narrow and wide builds"
      QCheck.(int_bound 1_000_000)
      (fun seed ->
        let rng = Prng.create ~seed in
        List.for_all (fun make -> csr_is_stably_sorted (make rng ~name:"m")) [ narrow; wide ]);
    qcheck ~count:200 "escape rows answer queries like their materialization"
      QCheck.(int_bound 1_000_000)
      (fun seed -> escapes_answer_like_materialized (Prng.create ~seed));
    test "of_packed rejects malformed escapes" (fun () ->
        let make escape =
          Automaton.of_packed ~name:"e" ~inputs:(Universe.of_list [ "a"; "b" ])
            ~outputs:Universe.empty ~props:Universe.empty ~state_names:[| "s"; "t" |]
            ~labels:[| Bitset.empty; Bitset.empty |]
            ~trans:[| []; [] |]
            ~escapes:[| Some escape; None |]
            ~initial:[ 0 ] ()
        in
        ignore (make { Automaton.excluded = [| 0; 3 |]; dsts = [ 1; 0 ] });
        List.iter
          (fun (what, escape) ->
            match make escape with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "%s accepted" what)
          [
            ("a destination past the last state", { Automaton.excluded = [||]; dsts = [ 2 ] });
            ("a negative destination", { Automaton.excluded = [||]; dsts = [ -1 ] });
            ("a negative pattern", { Automaton.excluded = [| -1 |]; dsts = [ 0 ] });
            ("a pattern outside the inputs", { Automaton.excluded = [| 4 |]; dsts = [ 0 ] });
            ("unsorted patterns", { Automaton.excluded = [| 2; 1 |]; dsts = [ 0 ] });
            ("a repeated pattern", { Automaton.excluded = [| 1; 1 |]; dsts = [ 0 ] });
          ]);
  ]

let () = Alcotest.run "automaton" [ ("unit", unit_tests @ digest_tests @ csr_tests) ]
