module Sat = Mechaml_mc.Sat
module Witness = Mechaml_mc.Witness
module Checker = Mechaml_mc.Checker
module Run = Mechaml_ts.Run
module Automaton = Mechaml_ts.Automaton
module Ctl = Mechaml_logic.Ctl
module Parser = Mechaml_logic.Parser
open Helpers

let diamond () =
  automaton ~inputs:[] ~outputs:[]
    ~states:[ ("s", []); ("l1", []); ("l2", []); ("bad", [ "bad" ]) ]
    ~trans:
      [
        ("s", [], [], "l1");
        ("l1", [], [], "l2");
        ("l2", [], [], "bad");
        ("s", [], [], "bad");
        ("bad", [], [], "bad");
      ]
    ~initial:[ "s" ] ()

let witness ?(strategy = Witness.Bfs_shortest) m f =
  let env = Sat.create m in
  Witness.witness (Sat.space m env) ~strategy
    ~start:(List.hd m.Automaton.initial)
    (Parser.parse_exn f)

let unit_tests =
  [
    test "EF witness is a valid run ending in the target" (fun () ->
        let m = diamond () in
        let { Witness.run; _ } = witness m "E<> bad" in
        check_bool "valid run" true (Run.is_run_of m run);
        check_string "ends at bad" "bad" (Automaton.state_name m (Run.final_state run)));
    test "BFS strategy finds the shortest EF witness" (fun () ->
        let m = diamond () in
        let { Witness.run; _ } = witness m "E<> bad" in
        check_int "one step" 1 (Run.length run));
    test "DFS strategy may take the long way" (fun () ->
        let m = diamond () in
        let { Witness.run; _ } = witness ~strategy:Witness.Dfs_first m "E<> bad" in
        check_bool "valid" true (Run.is_run_of m run);
        check_int "three steps through the detour" 3 (Run.length run));
    test "witness demands the formula holds" (fun () ->
        let m = diamond () in
        match witness m "A[] bad" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "A[] bad does not hold at s");
    test "EU witness stays within the constraint" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("a", [ "p" ]); ("b", [ "p" ]); ("c", []); ("goal", [ "g" ]) ]
            ~trans:
              [
                ("a", [], [], "b");
                ("b", [], [], "goal");
                ("a", [], [], "c");
                ("c", [], [], "goal");
                ("goal", [], [], "goal");
              ]
            ~initial:[ "a" ] ()
        in
        let { Witness.run; _ } = witness m "E (p U g)" in
        check_bool "valid" true (Run.is_run_of m run);
        (* every non-final state on the run satisfies p *)
        let states = Run.state_sequence run in
        let prefix = List.filteri (fun i _ -> i < List.length states - 1) states in
        check_bool "prefix satisfies p" true
          (List.for_all (fun s -> Automaton.has_prop m s "p") prefix));
    test "EG witness loops or blocks" (fun () ->
        let m = diamond () in
        let { Witness.run; explanation; _ } = witness m "EG true" in
        check_bool "valid" true (Run.is_run_of m run);
        check_bool "mentions loop" true
          (String.length explanation > 0));
    test "EX witness takes one step" (fun () ->
        let m = diamond () in
        let { Witness.run; _ } = witness m "EX true" in
        check_bool "valid" true (Run.is_run_of m run);
        check_bool "at least one step" true (Run.length run >= 1));
    test "checker produces counterexamples for AG violations" (fun () ->
        let m = diamond () in
        match Checker.check m (Parser.parse_exn "A[] (not bad)") with
        | Checker.Violated { witness; _ } ->
          check_bool "valid" true (Run.is_run_of m witness);
          check_string "reaches bad" "bad"
            (Automaton.state_name m (Run.final_state witness))
        | Checker.Holds -> Alcotest.fail "should be violated");
    test "checker counterexample for deadlock reaches the blocking state" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~trans:[ ("a", [], [], "b"); ("b", [], [], "stuck") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m Ctl.deadlock_free with
        | Checker.Violated { witness; _ } ->
          check_string "ends at stuck" "stuck"
            (Automaton.state_name m (Run.final_state witness));
          check_int "shortest" 2 (Run.length witness)
        | Checker.Holds -> Alcotest.fail "stuck is a deadlock");
    test "bounded AF violation yields a finite avoiding run" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("a", []); ("b", []); ("g", [ "g" ]) ]
            ~trans:[ ("a", [], [], "b"); ("b", [], [], "b"); ("b", [], [], "g") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m (Parser.parse_exn "AF[1,2] g") with
        | Checker.Violated { witness; _ } ->
          check_bool "valid" true (Run.is_run_of m witness);
          check_bool "avoids g" true
            (List.for_all (fun s -> not (Automaton.has_prop m s "g")) (Run.state_sequence witness))
        | Checker.Holds -> Alcotest.fail "the b-loop avoids g");
    test "completeness: a safety violation is trace-complete evidence" (fun () ->
        let m = diamond () in
        match Checker.check m (Parser.parse_exn "A[] (not bad)") with
        | Checker.Violated { complete; _ } -> check_bool "complete" true complete
        | Checker.Holds -> Alcotest.fail "violated");
    test "completeness: a deadlock witness carries a residual claim" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~trans:[ ("a", [], [], "stuck") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m Ctl.deadlock_free with
        | Checker.Violated { complete; _ } -> check_bool "residual" false complete
        | Checker.Holds -> Alcotest.fail "violated");
    test "completeness: bounded-response violated by a surviving run is complete" (fun () ->
        (* b loops forever avoiding g: the EG window is fully walked *)
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("a", [ "p" ]); ("b", [ "p" ]) ]
            ~trans:[ ("a", [], [], "b"); ("b", [], [], "b") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m (Parser.parse_exn "AG (p -> AF[1,2] (not p))") with
        | Checker.Violated { complete; witness; _ } ->
          check_bool "complete" true complete;
          check_bool "window walked" true (Run.length witness >= 2)
        | Checker.Holds -> Alcotest.fail "violated");
    test "completeness: bounded-response violated only by blocking is residual" (fun () ->
        (* the run dies before the window can be satisfied *)
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("a", [ "p" ]); ("dead", [ "p" ]) ]
            ~trans:[ ("a", [], [], "dead") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m (Parser.parse_exn "AG (p -> AF[1,3] (not p))") with
        | Checker.Violated { complete; _ } -> check_bool "residual" false complete
        | Checker.Holds -> Alcotest.fail "violated");
    test "completeness: a closed EG lasso is complete evidence" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("a", [ "p" ]); ("b", [ "p" ]) ]
            ~trans:[ ("a", [], [], "b"); ("b", [], [], "a") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m (Parser.parse_exn "AF (not p)") with
        | Checker.Violated { complete; explanation; _ } ->
          check_bool "complete" true complete;
          check_bool "loop noted" true (String.length explanation > 0)
        | Checker.Holds -> Alcotest.fail "violated");
    test "completeness: an EG path into a dead end is residual" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("a", [ "p" ]); ("dead", [ "p" ]) ]
            ~trans:[ ("a", [], [], "dead") ]
            ~initial:[ "a" ] ()
        in
        match Checker.check m (Parser.parse_exn "AF (not p)") with
        | Checker.Violated { complete; _ } -> check_bool "residual" false complete
        | Checker.Holds -> Alcotest.fail "violated");
    test "EG lasso around a 5,000-state cycle is the whole cycle, closed" (fun () ->
        let n = 5_000 in
        let name i = Printf.sprintf "c%d" i in
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:(List.init n (fun i -> (name i, [ "p" ])))
            ~trans:(List.init n (fun i -> (name i, [], [], name ((i + 1) mod n))))
            ~initial:[ name 0 ] ()
        in
        let { Witness.run; explanation; complete } = witness m "EG p" in
        (* the reference: every state once, then the start again *)
        let states = List.init (n + 1) (fun i -> i mod n) in
        let io =
          List.init n (fun i ->
              let t = List.hd (Automaton.transitions_from m i) in
              (t.Automaton.input, t.Automaton.output))
        in
        check_bool "the reference run" true (run = Run.regular ~states ~io);
        check_bool "valid" true (Run.is_run_of m run);
        check_bool "complete" true complete;
        check_string "loop noted" "loop closes at state c0" explanation);
  ]

let () = Alcotest.run "witness" [ ("unit", unit_tests) ]
