(* Integrating a faulty legacy component: the stop-and-wait scenario.

   A receiver context acknowledges every frame; the legacy sender under
   integration is a "fire-and-forget" implementation that never consumes
   acknowledgements.  The synchronous link jams one period after the first
   frame — a real deadlock the synthesis loop finds, confirms by testing
   against the component, and reports with a replayable counterexample.  The
   correct sender is then proved in a handful of iterations.

   Run with: dune exec examples/faulty_legacy.exe *)

module Protocol = Mechaml_scenarios.Protocol
module Listing = Mechaml_scenarios.Listing
module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Compose = Mechaml_ts.Compose
module Testcase = Mechaml_testing.Testcase

let () =
  Format.printf "== Stop-and-wait: integrating a fire-and-forget sender ==@.@.";
  let r = Protocol.run_fire_and_forget () in
  Format.printf "%a@.@." Loop.pp_result r;
  (match r.Loop.verdict with
  | Loop.Real_violation { kind = Loop.Deadlock; witness; product; _ } ->
    let product = Lazy.force product in
    Format.printf "Deadlock counterexample:@.@.%s@."
      (Listing.render ~left_name:"receiver" ~right_name:"sender" product witness);
    (* Replay the counterexample against the component to show it is real:
       every predicted interaction is reproduced. *)
    let tc =
      Testcase.of_projected_run ~name:"deadlock-prefix" product.Compose.right
        (Compose.project_right product witness)
    in
    let verdict = Testcase.execute ~box:Protocol.box_fire_and_forget tc in
    Format.printf "Replaying the prefix on the real component: %a@."
      Testcase.pp_classification verdict.Testcase.classification;
    Format.printf
      "The sender then refuses every interaction the receiver offers (the@.acknowledgement), \
       so the deadlock is real — Lemma 6 applies, no false negative.@."
  | _ -> Format.printf "unexpected verdict@.");
  Format.printf "@.Knowledge learned about the faulty sender before the verdict:@.%a@."
    Incomplete.pp r.Loop.final_model;
  Format.printf "@.== Same context, correct alternating sender ==@.@.";
  let ok = Protocol.run_correct () in
  Format.printf "%a@.@." Loop.pp_result ok;
  Format.printf "Learned model of the correct sender:@.%a@." Incomplete.pp ok.Loop.final_model
