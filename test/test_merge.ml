(* The three-role MergeCoordination scenario (composite context via
   Pattern.context_for) and the Coverage analysis. *)

module Merge = Mechaml_scenarios.Merge
module Loop = Mechaml_core.Loop
module Coverage = Mechaml_core.Coverage
module Conformance = Mechaml_core.Conformance
module Checker = Mechaml_mc.Checker
module Run = Mechaml_ts.Run
module Automaton = Mechaml_ts.Automaton
open Helpers

let unit_tests =
  [
    test "the MergeCoordination pattern verifies upfront" (fun () ->
        match Mechaml_muml.Pattern.verify Merge.pattern with
        | Checker.Holds -> ()
        | Checker.Violated { explanation; _ } -> Alcotest.fail explanation);
    test "the context composes the two peer roles" (fun () ->
        let props = Mechaml_ts.Universe.to_list Merge.context.Automaton.props in
        check_bool "arbiter props present" true (List.mem "arbiter.askA" props);
        check_bool "feederB props present" true (List.mem "feederB.merging" props);
        check_bool "feederA excluded" false (List.exists (fun p -> String.length p >= 8 && String.sub p 0 8 = "feederA.") props));
    test "the correct feeder is proved against the composite context" (fun () ->
        let r = Merge.run_correct () in
        (match r.Loop.verdict with Loop.Proved -> () | _ -> Alcotest.fail "expected Proved");
        check_bool "conforms" true (Conformance.conforms r.Loop.final_model Merge.feeder_correct));
    test "the pushy feeder violates exclusivity for real" (fun () ->
        let r = Merge.run_pushy () in
        match r.Loop.verdict with
        | Loop.Real_violation { kind = Loop.Property; witness; product; _ } ->
          let product = Lazy.force product in
          let final = Run.final_state witness in
          check_bool "both merging" true
            (Automaton.has_prop product.Mechaml_ts.Compose.auto final "feederA.merging"
            && Automaton.has_prop product.Mechaml_ts.Compose.auto final "feederB.merging")
        | _ -> Alcotest.fail "expected a real property violation");
    test "exact compositions agree" (fun () ->
        let labelled m =
          let props =
            List.init (Automaton.num_states m) (fun s ->
                Merge.label_of (Automaton.state_name m s))
            |> List.concat |> List.sort_uniq compare
          in
          let u = Mechaml_ts.Universe.of_list props in
          Automaton.relabel m ~props:u (fun s ->
              Mechaml_ts.Universe.set_of_names u (Merge.label_of (Automaton.state_name m s)))
        in
        let check_exact impl expected =
          let p = Mechaml_ts.Compose.parallel Merge.context (labelled impl) in
          Alcotest.(check bool) "exact" expected
            (Checker.holds p.Mechaml_ts.Compose.auto Merge.constraint_)
        in
        check_exact Merge.feeder_correct true;
        check_exact Merge.feeder_pushy false);
    test "coverage: everything context-relevant is known at a proof" (fun () ->
        let r = Merge.run_correct () in
        let c =
          Coverage.analyse ~context:Merge.context
            ~state_bound:Merge.box_correct.Mechaml_legacy.Blackbox.state_bound
            r.Loop.final_model
        in
        Alcotest.(check (float 0.001)) "relevant fraction" 1.0 (Coverage.relevant_fraction c);
        check_bool "explored a fraction of the whole space" true
          (Coverage.explored_fraction c < 0.5);
        check_bool "pp renders" true
          (String.length (Format.asprintf "%a" Coverage.pp c) > 0));
    test "coverage on the lock family reflects the context depth" (fun () ->
        let module F = Mechaml_scenarios.Families in
        let n = 16 and depth = 4 in
        let r =
          Loop.run ~label_of:F.lock_label_of ~context:(F.lock_context ~n ~depth)
            ~property:F.lock_property ~legacy:(F.lock_box ~n) ()
        in
        let c =
          Coverage.analyse ~context:(F.lock_context ~n ~depth) ~state_bound:(n + 1)
            r.Loop.final_model
        in
        Alcotest.(check (float 0.001)) "relevant covered" 1.0 (Coverage.relevant_fraction c);
        check_bool "small slice of the component" true (Coverage.explored_fraction c < 0.2));
    test "coverage of the trivial initial model is incomplete" (fun () ->
        let m = Mechaml_core.Synthesis.initial_model Merge.box_correct in
        let c = Coverage.analyse ~context:Merge.context ~state_bound:4 m in
        check_bool "nothing known yet" true (Coverage.relevant_fraction c < 1.0));
  ]

let () = Alcotest.run "merge" [ ("unit", unit_tests) ]
