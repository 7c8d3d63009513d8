module Sat = Mechaml_mc.Sat

(* the characteristic vector as booleans *)
let sat env f = Mechaml_util.Bitvec.to_bool_array (Mechaml_mc.Eval.sat_vec env f)
module Checker = Mechaml_mc.Checker
module Ctl = Mechaml_logic.Ctl
module Parser = Mechaml_logic.Parser
open Helpers

(* A line: s0 -> s1 -> s2(goal, blocking); plus a side loop at s0. *)
let line () =
  automaton ~inputs:[] ~outputs:[]
    ~states:[ ("s0", [ "start" ]); ("s1", [ "mid" ]); ("s2", [ "goal" ]) ]
    ~trans:[ ("s0", [], [], "s1"); ("s1", [], [], "s2") ]
    ~initial:[ "s0" ] ()

(* A loop alternating p-states with a branch to a blocking state. *)
let loop_with_exit () =
  automaton ~inputs:[] ~outputs:[]
    ~states:[ ("a", [ "p" ]); ("b", [ "p" ]); ("dead", [ "bad" ]) ]
    ~trans:[ ("a", [], [], "b"); ("b", [], [], "a"); ("b", [], [], "dead") ]
    ~initial:[ "a" ] ()

let sat m f =
  let env = Sat.create m in
  Array.to_list (sat env (Parser.parse_exn f))

let holds m f = Checker.holds m (Parser.parse_exn f)

let unit_tests =
  [
    test "propositions and booleans" (fun () ->
        let m = line () in
        Alcotest.(check (list bool)) "start" [ true; false; false ] (sat m "start");
        Alcotest.(check (list bool)) "not start" [ false; true; true ] (sat m "not start");
        Alcotest.(check (list bool)) "start or goal" [ true; false; true ] (sat m "start or goal");
        Alcotest.(check (list bool)) "true" [ true; true; true ] (sat m "true");
        Alcotest.(check (list bool)) "start -> goal" [ false; true; true ] (sat m "start -> goal"));
    test "unknown proposition raises" (fun () ->
        match sat (line ()) "nonexistent" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "deadlock proposition" (fun () ->
        Alcotest.(check (list bool)) "only s2 blocks" [ false; false; true ]
          (sat (line ()) "deadlock"));
    test "EX and AX" (fun () ->
        let m = line () in
        Alcotest.(check (list bool)) "EX mid" [ true; false; false ] (sat m "EX mid");
        Alcotest.(check (list bool)) "AX goal" [ false; true; true ] (sat m "AX goal"));
    test "EF and AG unbounded" (fun () ->
        let m = line () in
        Alcotest.(check (list bool)) "EF goal" [ true; true; true ] (sat m "E<> goal");
        Alcotest.(check (list bool)) "AG (not mid)" [ false; false; true ]
          (sat m "A[] (not mid)"));
    test "AF over maximal runs" (fun () ->
        let m = loop_with_exit () in
        (* the a<->b loop never reaches 'bad', so AF bad fails everywhere
           except the dead state itself *)
        Alcotest.(check (list bool)) "AF bad" [ false; false; true ] (sat m "AF bad"));
    test "EG over maximal runs includes finite blocked runs" (fun () ->
        let m = loop_with_exit () in
        Alcotest.(check (list bool)) "EG p on the loop" [ true; true; false ] (sat m "EG p");
        (* EG true holds everywhere (every maximal run qualifies) *)
        Alcotest.(check (list bool)) "EG true" [ true; true; true ] (sat m "EG true"));
    test "EU and AU unbounded" (fun () ->
        let m = line () in
        Alcotest.(check (list bool)) "E(start U mid)" [ true; true; false ]
          (sat m "E (start U mid)");
        Alcotest.(check (list bool)) "A(true U goal)" [ true; true; true ]
          (sat m "A (true U goal)");
        (* from s0, p fails before q on the only path where q=start *)
        Alcotest.(check (list bool)) "A(mid U goal)" [ false; true; true ]
          (sat m "A (mid U goal)"));
    test "bounded EF respects the window" (fun () ->
        let m = line () in
        Alcotest.(check (list bool)) "EF[2,2] goal" [ true; false; false ]
          (sat m "EF[2,2] goal");
        Alcotest.(check (list bool)) "EF[1,1] goal" [ false; true; false ]
          (sat m "EF[1,1] goal");
        Alcotest.(check (list bool)) "EF[0,0] goal" [ false; false; true ]
          (sat m "EF[0,0] goal");
        Alcotest.(check (list bool)) "EF[3,9] goal (too late)" [ false; false; false ]
          (sat m "EF[3,9] goal"));
    test "bounded AF fails when a run ends before the window" (fun () ->
        let m = line () in
        (* s1 reaches goal in 1 step; the run then blocks, so AF[2,3] goal is
           unsatisfiable from s1. *)
        Alcotest.(check (list bool)) "AF[1,2] goal" [ true; true; false ]
          (sat m "AF[1,2] goal");
        Alcotest.(check (list bool)) "AF[2,3] goal" [ true; false; false ]
          (sat m "AF[2,3] goal"));
    test "bounded AG checks only the window" (fun () ->
        let m = loop_with_exit () in
        Alcotest.(check (list bool)) "AG[0,1] p" [ true; false; false ] (sat m "AG[0,1] p");
        Alcotest.(check (list bool)) "AG[0,0] p" [ true; true; false ] (sat m "AG[0,0] p");
        (* a run that dies before the window satisfies the bounded safety *)
        let line = line () in
        Alcotest.(check (list bool)) "AG[5,9] anything on a short line" [ true; true; true ]
          (sat line "AG[5,9] mid"));
    test "bounded EG and EU" (fun () ->
        let m = loop_with_exit () in
        Alcotest.(check (list bool)) "EG[0,5] p" [ true; true; false ] (sat m "EG[0,5] p");
        Alcotest.(check (list bool)) "E[1,2](p U bad)" [ true; true; false ]
          (sat m "E[1,2] (p U bad)"));
    test "bounded AU" (fun () ->
        let m = line () in
        Alcotest.(check (list bool)) "A[1,2] (true U goal)" [ true; true; false ]
          (sat m "A[1,2] (true U goal)"));
    test "checker verdicts on initial states" (fun () ->
        let m = line () in
        check_bool "EF goal holds initially" true (holds m "E<> goal");
        check_bool "AG not goal fails" false (holds m "A[] (not goal)");
        check_bool "deadlock freedom fails (s2 blocks)" false
          (holds m "A[] (not deadlock)"));
    test "check_conjunction reports the first failing property" (fun () ->
        let m = line () in
        match
          Checker.check_conjunction m
            [ Parser.parse_exn "E<> goal"; Parser.parse_exn "A[] (not mid)" ]
        with
        | Checker.Violated { formula; _ } ->
          check_bool "second formula blamed" true
            (Ctl.equal formula (Parser.parse_exn "A[] (not mid)"))
        | Checker.Holds -> Alcotest.fail "should be violated");
    test "check_with_deadlock_freedom flags deadlock first" (fun () ->
        let m = line () in
        match Checker.check_with_deadlock_freedom m (Parser.parse_exn "true") with
        | Checker.Violated { formula; _ } ->
          check_bool "deadlock-freedom blamed" true (Ctl.equal formula Ctl.deadlock_free)
        | Checker.Holds -> Alcotest.fail "line has a blocking state");
  ]

let () = Alcotest.run "mc" [ ("unit", unit_tests) ]
