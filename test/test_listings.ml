(* Golden tests for the paper's listings: the monitored event logs and
   counterexample renderings must keep their exact shape (modulo the
   documented naming conventions, see EXPERIMENTS.md). *)

module Railcab = Mechaml_scenarios.Railcab
module Listing = Mechaml_scenarios.Listing
module Monitor = Mechaml_legacy.Monitor
module Replay = Mechaml_legacy.Replay
module Event = Mechaml_legacy.Event
module Loop = Mechaml_core.Loop
open Helpers

let unit_tests =
  [
    test "Listing 1.2: minimal recording of the conflicting shuttle" (fun () ->
        let recording =
          Replay.record ~box:Railcab.box_conflicting
            ~inputs:[ []; [ "convoyProposalRejected" ] ]
        in
        check_string "golden"
          "[Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"\n\
           [Message] name=\"convoyProposalRejected\", portName=\"rearRole\", type=\"incoming\""
          (Event.to_string recording.Replay.minimal_events));
    test "Listing 1.3: replay with full instrumentation exposes the convoy state" (fun () ->
        let recording =
          Replay.record ~box:Railcab.box_conflicting
            ~inputs:[ []; [ "convoyProposalRejected" ] ]
        in
        let outcome = Replay.replay ~box:Railcab.box_conflicting recording in
        check_string "golden"
          "[CurrentState] name=\"noConvoy\"\n\
           [Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"\n\
           [Timing] count=1\n\
           [CurrentState] name=\"convoy\"\n\
           [Message] name=\"convoyProposalRejected\", portName=\"rearRole\", type=\"incoming\"\n\
           [Timing] count=2"
          (Event.to_string outcome.Monitor.events));
    test "Listing 1.5: successful learning step on the correct shuttle" (fun () ->
        let outcome =
          Monitor.run ~box:Railcab.box_correct ~instrumentation:Monitor.Full
            ~inputs:[ []; [ "convoyProposalRejected" ]; []; [ "startConvoy" ] ]
        in
        check_string "golden"
          "[CurrentState] name=\"noConvoy::default\"\n\
           [Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"\n\
           [Timing] count=1\n\
           [CurrentState] name=\"noConvoy::wait\"\n\
           [Message] name=\"convoyProposalRejected\", portName=\"rearRole\", type=\"incoming\"\n\
           [Timing] count=2\n\
           [CurrentState] name=\"noConvoy::default\"\n\
           [Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"\n\
           [Timing] count=3\n\
           [CurrentState] name=\"noConvoy::wait\"\n\
           [Message] name=\"startConvoy\", portName=\"rearRole\", type=\"incoming\"\n\
           [Timing] count=4"
          (Event.to_string outcome.Monitor.events));
    test "Listing 1.4: the fast conflict counterexample rendering" (fun () ->
        let r = Railcab.run_conflicting () in
        match r.Loop.verdict with
        | Loop.Real_violation { witness; product; _ } ->
          let product = Lazy.force product in
          check_string "golden"
            "shuttle1.noConvoy::default, shuttle2.noConvoy\n\
             shuttle2.convoyProposal!, shuttle1.convoyProposal?\n\
             shuttle1.noConvoy::answer, shuttle2.convoy\n"
            (Listing.render ~left_name:"shuttle1" ~right_name:"shuttle2" product witness)
        | _ -> Alcotest.fail "expected the real violation");
    test "Listing 1.1 shape: the DFS counterexample visits chaos and deadlocks" (fun () ->
        let m0 = Mechaml_core.Synthesis.initial_model Railcab.box_correct in
        let a0 =
          Mechaml_core.Chaos.closure ~label_of:Railcab.label_of
            ~extra_props:[ "rearRole.convoy"; "rearRole.noConvoy" ]
            m0
        in
        let product = Mechaml_ts.Compose.parallel Railcab.context a0 in
        let weakened =
          Mechaml_logic.Ctl.weaken_for_chaos ~chaos_prop:Mechaml_core.Chaos.chaos_prop
            Railcab.constraint_
        in
        match
          Mechaml_mc.Checker.check_conjunction ~strategy:Mechaml_mc.Witness.Dfs_first
            product.Mechaml_ts.Compose.auto
            [ weakened; Mechaml_logic.Ctl.deadlock_free ]
        with
        | Mechaml_mc.Checker.Violated { witness; _ } ->
          let rendered =
            Listing.render ~left_name:"shuttle1" ~right_name:"shuttle2" product witness
          in
          let contains needle =
            let h = String.length rendered and n = String.length needle in
            let rec go i = i + n <= h && (String.sub rendered i n = needle || go (i + 1)) in
            go 0
          in
          check_bool "visits s_all" true (contains "shuttle2.s_all");
          check_bool "ends in s_delta" true (contains "shuttle2.s_delta");
          check_bool "opens with the proposal handshake" true
            (contains "shuttle2.convoyProposal!, shuttle1.convoyProposal?")
        | Mechaml_mc.Checker.Holds -> Alcotest.fail "iteration 0 cannot hold");
  ]

let () = Alcotest.run "listings" [ ("unit", unit_tests) ]
