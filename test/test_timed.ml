(* The timed scenarios: the watchdog (clock-bearing context) and the
   connector-mediated RailCab variant (delay and loss), including the
   regression for the evidence-completeness soundness fix: a bounded-response
   property over a reliable channel must be PROVED, not mistaken for a
   violation via a blocking closed-copy artefact. *)

module Watchdog = Mechaml_scenarios.Watchdog
module Remote = Mechaml_scenarios.Railcab_remote
module Loop = Mechaml_core.Loop
module Conformance = Mechaml_core.Conformance
module Checker = Mechaml_mc.Checker
module Compose = Mechaml_ts.Compose
module Automaton = Mechaml_ts.Automaton
module Ctl = Mechaml_logic.Ctl
open Helpers

let relabel_with labels m =
  let props =
    List.init (Automaton.num_states m) (fun s -> labels (Automaton.state_name m s))
    |> List.concat |> List.sort_uniq compare
  in
  let u = Mechaml_ts.Universe.of_list props in
  Automaton.relabel m ~props:u (fun s ->
      Mechaml_ts.Universe.set_of_names u (labels (Automaton.state_name m s)))

let unit_tests =
  [
    test "watchdog context has the clocked shape" (fun () ->
        let m = Watchdog.watchdog in
        (* waiting[x=0..3], justFed[x=0..], starved — bounded by the cap *)
        check_bool "clock configurations bounded" true (Automaton.num_states m <= 12);
        check_bool "starved state exists" true
          (List.exists
             (fun s -> Automaton.has_prop m s "watchdog.starved")
             (List.init (Automaton.num_states m) Fun.id)));
    test "prompt controller is proved" (fun () ->
        let r = Watchdog.run_prompt () in
        match r.Loop.verdict with
        | Loop.Proved ->
          check_bool "conforms" true
            (Conformance.conforms r.Loop.final_model Watchdog.controller_prompt)
        | _ -> Alcotest.fail "expected Proved");
    test "sluggish controller starves the watchdog for real" (fun () ->
        let r = Watchdog.run_sluggish () in
        match r.Loop.verdict with
        | Loop.Real_violation { kind = Loop.Property; witness; product; _ } ->
          let product = Lazy.force product in
          let final = Mechaml_ts.Run.final_state witness in
          check_bool "ends starved" true
            (Automaton.has_prop product.Compose.auto final "watchdog.starved")
        | _ -> Alcotest.fail "expected a real property violation");
    test "watchdog verdicts agree with the exact compositions" (fun () ->
        let check_exact controller expected =
          let p = Compose.parallel Watchdog.watchdog controller in
          Alcotest.(check bool) "exact" expected
            (Checker.holds p.Compose.auto Watchdog.property)
        in
        check_exact Watchdog.controller_prompt true;
        check_exact Watchdog.controller_sluggish false);
    test "deadline CCTL obligation holds on the exact prompt composition" (fun () ->
        let p = Compose.parallel Watchdog.watchdog Watchdog.controller_prompt in
        check_bool "AF[1,3] justFed after waiting" true
          (Checker.holds p.Compose.auto Watchdog.deadline_property));
    test "remote railcab: constraint proved over the reliable channel" (fun () ->
        let r = Remote.run ~lossy:false ~property:Remote.constraint_ () in
        match r.Loop.verdict with
        | Loop.Proved ->
          check_bool "learned the remote component" true
            (Conformance.conforms r.Loop.final_model Remote.legacy_remote)
        | _ -> Alcotest.fail "expected Proved");
    test "remote railcab: bounded response proved over the reliable channel" (fun () ->
        (* regression for the evidence-completeness fix: the blocked closed
           copy of the wait state must not masquerade as a real violation *)
        let r = Remote.run ~lossy:false ~property:Remote.response_property () in
        match r.Loop.verdict with
        | Loop.Proved -> ()
        | Loop.Real_violation _ -> Alcotest.fail "unsound: reliable channel meets the deadline"
        | Loop.Exhausted _ -> Alcotest.fail "should terminate"
        | Loop.Degraded _ -> Alcotest.fail "no faults injected: must not degrade");
    test "remote railcab: bounded response fails for real over the lossy channel" (fun () ->
        let r = Remote.run ~lossy:true ~property:Remote.response_property () in
        match r.Loop.verdict with
        | Loop.Real_violation { kind = Loop.Property; witness; product; _ } ->
          let product = Lazy.force product in
          (* the counterexample replays on the component *)
          let tc =
            Mechaml_testing.Testcase.of_projected_run product.Compose.right
              (Compose.project_right product witness)
          in
          let v = Mechaml_testing.Testcase.execute ~box:Remote.box_remote tc in
          check_bool "replays" true
            (v.Mechaml_testing.Testcase.classification = Mechaml_testing.Testcase.Reproduced)
        | _ -> Alcotest.fail "expected a real property violation");
    test "remote railcab: hasty front role really violates the constraint" (fun () ->
        let r =
          Loop.run ~label_of:Remote.label_of ~context:Remote.front_hasty_context
            ~property:Remote.constraint_ ~legacy:Remote.box_remote ()
        in
        match r.Loop.verdict with
        | Loop.Real_violation { kind = Loop.Property; _ } -> ()
        | _ -> Alcotest.fail "expected a real violation (ack in flight)");
    test "loop verdicts match the exact remote compositions" (fun () ->
        let labelled = relabel_with Remote.label_of Remote.legacy_remote in
        let exact lossy = Compose.parallel (Remote.context ~lossy) labelled in
        check_bool "reliable constraint" true
          (Checker.holds (exact false).Compose.auto Remote.constraint_);
        check_bool "reliable response" true
          (Checker.holds (exact false).Compose.auto Remote.response_property);
        check_bool "lossy response fails" false
          (Checker.holds (exact true).Compose.auto Remote.response_property);
        check_bool "both deadlock free" true
          (Checker.holds (exact true).Compose.auto Ctl.deadlock_free));
  ]

let () = Alcotest.run "timed" [ ("unit", unit_tests) ]
