(* The loop's optional extensions: grey-box initial knowledge and batched
   counterexamples (the paper's future-work item, Section 7). *)

module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Synthesis = Mechaml_core.Synthesis
module Conformance = Mechaml_core.Conformance
module Checker = Mechaml_mc.Checker
module Run = Mechaml_ts.Run
module Automaton = Mechaml_ts.Automaton
open Mechaml_scenarios
open Helpers

let space m = Mechaml_mc.Sat.(space m (create m))

let unit_tests =
  [
    test "more_witnesses returns distinct nearest violations" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~states:[ ("bad1", [ "bad" ]); ("bad2", [ "bad" ]) ]
            ~trans:
              [
                ("s", [], [], "bad1");
                ("s", [], [], "mid");
                ("mid", [], [], "bad2");
                ("bad1", [], [], "bad1");
                ("bad2", [], [], "bad2");
                ("mid", [], [], "mid");
              ]
            ~initial:[ "s" ] ()
        in
        let runs =
          Checker.more_witnesses ~limit:3 (space m) (Mechaml_logic.Parser.parse_exn "AG (not bad)")
        in
        check_int "two bad states found" 2 (List.length runs);
        let finals = List.map (fun r -> Automaton.state_name m (Run.final_state r)) runs in
        Alcotest.(check (list string)) "nearest first" [ "bad1"; "bad2" ]
          finals;
        List.iter (fun r -> check_bool "valid" true (Run.is_run_of m r)) runs);
    test "more_witnesses is empty when the property holds" (fun () ->
        let m = automaton ~inputs:[] ~outputs:[] ~trans:[ ("s", [], [], "s") ] ~initial:[ "s" ] () in
        check_int "none" 0
          (List.length (Checker.more_witnesses (space m) (Mechaml_logic.Parser.parse_exn "AG true"))));
    test "more_witnesses covers deadlock freedom" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[]
            ~trans:[ ("s", [], [], "d1"); ("s", [], [], "d2") ]
            ~initial:[ "s" ] ()
        in
        check_int "both deadlocks" 2
          (List.length (Checker.more_witnesses (space m) Mechaml_logic.Ctl.deadlock_free)));
    test "grey-box knowledge reduces iterations" (fun () ->
        let baseline = Railcab.run_correct () in
        (* seed with half the component's transitions, as if documented *)
        let seeded_model =
          let m = Synthesis.initial_model Railcab.box_correct in
          let m =
            Incomplete.add_transition m ~src:"noConvoy::default"
              (Incomplete.interaction ~inputs:[] ~outputs:[ "convoyProposal" ])
              ~dst:"noConvoy::wait"
          in
          Incomplete.add_transition m ~src:"noConvoy::wait"
            (Incomplete.interaction ~inputs:[ "startConvoy" ] ~outputs:[])
            ~dst:"convoy::default"
        in
        let seeded =
          Loop.run ~label_of:Railcab.label_of ~initial_knowledge:seeded_model
            ~context:Railcab.context ~property:Railcab.constraint_ ~legacy:Railcab.box_correct ()
        in
        (match seeded.Loop.verdict with
        | Loop.Proved -> ()
        | _ -> Alcotest.fail "expected Proved");
        check_bool "fewer or equal iterations" true
          (List.length seeded.Loop.iterations <= List.length baseline.Loop.iterations);
        check_bool "fewer tests" true (seeded.Loop.tests_executed < baseline.Loop.tests_executed));
    test "grey-box knowledge is validated against the interface" (fun () ->
        let alien =
          Incomplete.create ~name:"x" ~inputs:[ "zzz" ] ~outputs:[] ~initial_state:"s"
        in
        match
          Loop.run ~initial_knowledge:alien ~context:Railcab.context
            ~property:Railcab.constraint_ ~legacy:Railcab.box_correct ()
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "wrong grey-box facts are exposed by conformance" (fun () ->
        (* the loop trusts the seed; a wrong seed breaks observation
           conformance, which the test suite can detect *)
        let wrong =
          Incomplete.add_refusal
            (Synthesis.initial_model Railcab.box_correct)
            ~state:"noConvoy::default" ~inputs:[]
        in
        check_bool "not conforming" false (Conformance.conforms wrong Railcab.legacy_correct));
    test "batched counterexamples do not change verdicts" (fun () ->
        List.iter
          (fun k ->
            let r =
              Loop.run ~counterexamples_per_iteration:k ~label_of:Railcab.label_of
                ~context:Railcab.context ~property:Railcab.constraint_
                ~legacy:Railcab.box_correct ()
            in
            match r.Loop.verdict with
            | Loop.Proved ->
              check_bool "conforms" true
                (Conformance.conforms r.Loop.final_model Railcab.legacy_correct)
            | _ -> Alcotest.fail (Printf.sprintf "k=%d should prove" k))
          [ 1; 2; 4 ]);
    test "batched counterexamples reduce model-checking rounds" (fun () ->
        let iterations k =
          let r =
            Mechaml_scenarios.Railcab_remote.run ~lossy:false
              ~property:Mechaml_scenarios.Railcab_remote.constraint_ ()
          in
          ignore r;
          let r =
            Loop.run ~counterexamples_per_iteration:k
              ~label_of:Mechaml_scenarios.Railcab_remote.label_of
              ~context:(Mechaml_scenarios.Railcab_remote.context ~lossy:false)
              ~property:Mechaml_scenarios.Railcab_remote.constraint_
              ~legacy:Mechaml_scenarios.Railcab_remote.box_remote ()
          in
          (match r.Loop.verdict with
          | Loop.Proved -> ()
          | _ -> Alcotest.fail "expected Proved");
          List.length r.Loop.iterations
        in
        check_bool "k=4 needs no more rounds than k=1" true (iterations 4 <= iterations 1));
    test "batching on the lock family verdicts agree" (fun () ->
        let n = 12 and depth = 4 in
        List.iter
          (fun k ->
            let r =
              Loop.run ~counterexamples_per_iteration:k ~label_of:Families.lock_label_of
                ~context:(Families.lock_context ~n ~depth) ~property:Families.lock_property
                ~legacy:(Families.lock_box ~n) ()
            in
            match r.Loop.verdict with
            | Loop.Proved -> ()
            | _ -> Alcotest.fail "expected Proved")
          [ 1; 3 ]);
  ]

let () = Alcotest.run "loop_extensions" [ ("unit", unit_tests) ]
