(* The paper's running example, end to end: the RailCab DistanceCoordination
   pattern (Fig. 1/5), initial behavior synthesis (Fig. 4), the iterative
   verify–test–learn loop on both legacy shuttle implementations (Fig. 6/7),
   and the monitored traces of Listings 1.1–1.5.

   Run with: dune exec examples/railcab_convoy.exe
   DOT files for the figures are written to ./railcab_figures/. *)

module Railcab = Mechaml_scenarios.Railcab
module Listing = Mechaml_scenarios.Listing
module Loop = Mechaml_core.Loop
module Chaos = Mechaml_core.Chaos
module Synthesis = Mechaml_core.Synthesis
module Incomplete = Mechaml_core.Incomplete
module Checker = Mechaml_mc.Checker
module Witness = Mechaml_mc.Witness
module Compose = Mechaml_ts.Compose
module Automaton = Mechaml_ts.Automaton
module Dot = Mechaml_ts.Dot
module Monitor = Mechaml_legacy.Monitor
module Replay = Mechaml_legacy.Replay
module Event = Mechaml_legacy.Event
module Ctl = Mechaml_logic.Ctl

let figures_dir = "railcab_figures"

let save_figure name dot =
  if not (Sys.file_exists figures_dir) then Sys.mkdir figures_dir 0o755;
  Dot.save ~path:(Filename.concat figures_dir (name ^ ".dot")) dot

let section title = Format.printf "@.=== %s ===@.@." title

let () =
  Format.printf "RailCab DistanceCoordination — reproduction of the paper's walkthrough@.";

  (* -- The pattern and its upfront verification (Section "Modeling") -- *)
  section "Pattern verification (roles + constraint + deadlock freedom)";
  (match Mechaml_muml.Pattern.verify Railcab.pattern with
  | Checker.Holds -> Format.printf "DistanceCoordination pattern verified: constraint %s holds.@."
                       (Ctl.to_string Railcab.constraint_)
  | Checker.Violated { explanation; _ } -> Format.printf "pattern violated: %s@." explanation);
  save_figure "fig5_front_role" (Dot.of_automaton Railcab.context);

  (* -- Initial behavior synthesis (Section 3, Fig. 4) -- *)
  section "Initial behavior synthesis (Fig. 4)";
  let m0 = Synthesis.initial_model Railcab.box_correct in
  Format.printf "M_l^0 (trivial incomplete automaton):@.%a@." Incomplete.pp m0;
  (* Seed the proposition universe with the constraint's legacy-side
     propositions, exactly as the loop does internally. *)
  let legacy_props =
    List.filter
      (fun p -> not (Mechaml_ts.Universe.mem Railcab.context.Automaton.props p))
      (Ctl.props Railcab.constraint_)
  in
  let a0 = Chaos.closure ~label_of:Railcab.label_of ~extra_props:legacy_props m0 in
  Format.printf "M_a^0 = chaos(M_l^0): %d states, %d transitions@."
    (Automaton.num_states a0) (Automaton.num_transitions a0);
  save_figure "fig4b_initial_closure" (Dot.of_automaton (Chaos.materialize a0));
  save_figure "fig3_chaotic_automaton"
    (Dot.of_automaton
       (Chaos.chaotic_automaton ~name:"chaos" ~inputs:Railcab.front_to_rear
          ~outputs:Railcab.rear_to_front));

  (* -- Listing 1.1: a first counterexample from the initial abstraction -- *)
  section "First model-checking counterexample (Listing 1.1)";
  let product0 = Compose.parallel Railcab.context a0 in
  let weakened = Ctl.weaken_for_chaos ~chaos_prop:Chaos.chaos_prop Railcab.constraint_ in
  (match
     Checker.check_conjunction ~strategy:Witness.Dfs_first product0.Compose.auto
       [ weakened; Ctl.deadlock_free ]
   with
  | Checker.Violated { witness; formula; _ } ->
    Format.printf "violated: %s@.@.%s@." (Ctl.to_string formula)
      (Listing.render ~left_name:"shuttle1" ~right_name:"shuttle2" product0 witness)
  | Checker.Holds -> Format.printf "unexpectedly proved@.");

  (* -- Listings 1.2/1.3: monitoring and deterministic replay -- *)
  section "Counterexample-based testing with deterministic replay (Listings 1.2/1.3)";
  let test_inputs = [ []; [ "convoyProposalRejected" ] ] in
  Format.printf "Recording phase — minimal events only (Listing 1.2 style):@.";
  let recording = Replay.record ~box:Railcab.box_conflicting ~inputs:test_inputs in
  Format.printf "%s@.@." (Event.to_string recording.Replay.minimal_events);
  Format.printf "Replay phase — full instrumentation (Listing 1.3 style):@.";
  let outcome = Replay.replay ~box:Railcab.box_conflicting recording in
  Format.printf "%s@." (Event.to_string outcome.Monitor.events);

  (* -- The conflicting shuttle: fast conflict detection (Fig. 6, L. 1.4) -- *)
  section "Conflicting legacy shuttle: fast conflict detection (Fig. 6 / Listing 1.4)";
  let conflict = Railcab.run_conflicting () in
  Format.printf "%a@.@." Loop.pp_result conflict;
  (match conflict.Loop.verdict with
  | Loop.Real_violation { witness; product; _ } ->
    let product = Lazy.force product in
    Format.printf "Counterexample (violation inside the synthesized behaviour):@.@.%s@."
      (Listing.render ~left_name:"shuttle1" ~right_name:"shuttle2" product witness);
    save_figure "fig6_conflicting_learned"
      (Dot.of_automaton (Incomplete.to_automaton conflict.Loop.final_model))
  | _ -> Format.printf "unexpected verdict@.");

  (* -- The correct shuttle: iterate to a proof (Fig. 7, Listing 1.5) -- *)
  section "Correct legacy shuttle: proof by iterative synthesis (Fig. 7 / Listing 1.5)";
  let proof = Railcab.run_correct () in
  Format.printf "%a@.@." Loop.pp_result proof;
  Format.printf "Final learned model (Fig. 7 plus the break handshake):@.%a@." Incomplete.pp
    proof.Loop.final_model;
  save_figure "fig7_correct_learned"
    (Dot.of_automaton (Incomplete.to_automaton proof.Loop.final_model));
  Format.printf "Monitored trace of a successful learning step (Listing 1.5 style):@.";
  let l5 =
    Monitor.run ~box:Railcab.box_correct ~instrumentation:Monitor.Full
      ~inputs:[ []; [ "convoyProposalRejected" ]; []; [ "startConvoy" ] ]
  in
  Format.printf "%s@.@." (Event.to_string l5.Monitor.events);
  Format.printf "Figures written to %s/.@." figures_dir
