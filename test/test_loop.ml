module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Conformance = Mechaml_core.Conformance
module Checker = Mechaml_mc.Checker
module Compose = Mechaml_ts.Compose
module Run = Mechaml_ts.Run
module Ctl = Mechaml_logic.Ctl
module Blackbox = Mechaml_legacy.Blackbox
open Mechaml_scenarios
open Helpers

let unit_tests =
  [
    test "RailCab correct legacy is proved (Fig. 7 walkthrough)" (fun () ->
        let r = Railcab.run_correct () in
        (match r.Loop.verdict with
        | Loop.Proved -> ()
        | _ -> Alcotest.fail "expected Proved");
        check_int "learns the whole exercised component" 4 r.Loop.states_learned;
        check_bool "several iterations" true (List.length r.Loop.iterations >= 3);
        check_bool "final model conforms to the real component" true
          (Conformance.conforms r.Loop.final_model Railcab.legacy_correct));
    test "RailCab proved verdict is sound against the exact product" (fun () ->
        let r = Railcab.run_correct () in
        (match r.Loop.verdict with Loop.Proved -> () | _ -> Alcotest.fail "expected Proved");
        let exact =
          Compose.parallel Railcab.context
            (Mechaml_ts.Automaton.relabel Railcab.legacy_correct
               ~props:(Mechaml_ts.Universe.of_list [ "rearRole.noConvoy"; "rearRole.convoy" ])
               (fun s ->
                 Mechaml_ts.Universe.set_of_names
                   (Mechaml_ts.Universe.of_list [ "rearRole.noConvoy"; "rearRole.convoy" ])
                   (List.filter
                      (fun p -> p = "rearRole.noConvoy" || p = "rearRole.convoy")
                      (Railcab.label_of
                         (Mechaml_ts.Automaton.state_name Railcab.legacy_correct s)))))
        in
        match
          Checker.check_conjunction exact.Compose.auto [ Railcab.constraint_; Ctl.deadlock_free ]
        with
        | Checker.Holds -> ()
        | Checker.Violated { explanation; _ } -> Alcotest.fail explanation);
    test "RailCab conflicting legacy: fast conflict detection (Listing 1.4)" (fun () ->
        let r = Railcab.run_conflicting () in
        match r.Loop.verdict with
        | Loop.Real_violation { kind = Loop.Property; confirmed_by_test; witness; product; _ } ->
          let product = Lazy.force product in
          check_bool "found without a final test" false confirmed_by_test;
          (* the witness really is a run of the last abstraction's product *)
          check_bool "witness is a product run" true (Run.is_run_of product.Compose.auto witness);
          (* and its last state violates the pattern constraint *)
          let final = Run.final_state witness in
          check_bool "rear in convoy" true
            (Mechaml_ts.Automaton.has_prop product.Compose.auto final "rearRole.convoy");
          check_bool "front in noConvoy" true
            (Mechaml_ts.Automaton.has_prop product.Compose.auto final "frontRole.noConvoy")
        | _ -> Alcotest.fail "expected a real property violation");
    test "protocol: correct sender proved, learned model complete" (fun () ->
        let r = Protocol.run_correct () in
        (match r.Loop.verdict with Loop.Proved -> () | _ -> Alcotest.fail "expected Proved");
        check_int "4 states" 4 r.Loop.states_learned;
        check_bool "conforms" true (Conformance.conforms r.Loop.final_model Protocol.sender_correct));
    test "protocol: fire-and-forget sender deadlocks for real" (fun () ->
        let r = Protocol.run_fire_and_forget () in
        match r.Loop.verdict with
        | Loop.Real_violation { kind = Loop.Deadlock; _ } -> ()
        | _ -> Alcotest.fail "expected a real deadlock");
    test "lock: context-restricted learning proves without full exploration" (fun () ->
        let n = 10 and depth = 3 in
        let r =
          Loop.run ~label_of:Families.lock_label_of
            ~context:(Families.lock_context ~n ~depth)
            ~property:Families.lock_property ~legacy:(Families.lock_box ~n) ()
        in
        (match r.Loop.verdict with Loop.Proved -> () | _ -> Alcotest.fail "expected Proved");
        check_bool "learned far fewer states than the component has" true
          (r.Loop.states_learned <= depth + 2);
        check_bool "conforms" true
          (Conformance.conforms r.Loop.final_model (Families.lock_legacy ~n)));
    test "verdicts agree with ground truth on random instances" (fun () ->
        (* For a sample of random legacy/context pairs, the loop's verdict
           must match model checking the exact composition (Lemmas 5/6). *)
        let agree seed =
          let legacy =
            Families.random_machine ~seed ~states:4 ~inputs:[ "u"; "v" ] ~outputs:[ "w" ]
          in
          let context =
            Families.random_context ~seed ~states:3 ~legacy_inputs:[ "u"; "v" ]
              ~legacy_outputs:[ "w" ]
          in
          let box = Blackbox.of_automaton legacy in
          let r = Loop.run ~context ~property:Ctl.True ~legacy:box () in
          let exact = Compose.parallel context legacy in
          let truth = Checker.check exact.Compose.auto Ctl.deadlock_free in
          match (r.Loop.verdict, truth) with
          | Loop.Proved, Checker.Holds -> true
          | Loop.Real_violation _, Checker.Violated _ -> true
          | Loop.Proved, Checker.Violated _ | Loop.Real_violation _, Checker.Holds -> false
          | Loop.Exhausted _, _ | Loop.Degraded _, _ -> false
        in
        List.iter
          (fun seed -> check_bool (Printf.sprintf "seed %d" seed) true (agree seed))
          (List.init 25 (fun i -> i + 1)));
    test "real deadlock counterexamples replay on the exact product" (fun () ->
        let r = Protocol.run_fire_and_forget () in
        match r.Loop.verdict with
        | Loop.Real_violation { witness; product; _ } ->
          let product = Lazy.force product in
          (* Project to the legacy side and replay on the component: every
             step must be accepted with the same outputs. *)
          let side = product.Compose.right in
          let tc = Mechaml_testing.Testcase.of_projected_run side (Compose.project_right product witness) in
          let v = Mechaml_testing.Testcase.execute ~box:Protocol.box_fire_and_forget tc in
          check_bool "reproduced" true
            (v.Mechaml_testing.Testcase.classification = Mechaml_testing.Testcase.Reproduced)
        | _ -> Alcotest.fail "expected a violation");
    test "iteration records are monotone in knowledge" (fun () ->
        let r = Railcab.run_correct () in
        let knowledge = List.map (fun (it : Loop.iteration) -> it.Loop.model_knowledge) r.Loop.iterations in
        let rec increasing = function
          | a :: (b :: _ as rest) -> a < b && increasing rest
          | _ -> true
        in
        check_bool "strictly increasing across iterations" true (increasing knowledge));
    test "non-compositional properties are rejected" (fun () ->
        match
          Loop.run ~context:Railcab.context
            ~property:(Mechaml_logic.Parser.parse_exn "E<> frontRole.convoy")
            ~legacy:Railcab.box_correct ()
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "interface mismatch is rejected" (fun () ->
        match
          Loop.run ~context:Protocol.receiver ~property:Ctl.True ~legacy:Railcab.box_correct ()
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "max_iterations yields Exhausted" (fun () ->
        let r =
          Loop.run ~max_iterations:1 ~label_of:Railcab.label_of ~context:Railcab.context
            ~property:Railcab.constraint_ ~legacy:Railcab.box_correct ()
        in
        match r.Loop.verdict with
        | Loop.Exhausted _ -> ()
        | _ -> Alcotest.fail "expected Exhausted");
    test "pp_result renders" (fun () ->
        let r = Railcab.run_conflicting () in
        check_bool "nonempty" true (String.length (Format.asprintf "%a" Loop.pp_result r) > 0));
  ]

let () = Alcotest.run "loop" [ ("unit", unit_tests) ]
