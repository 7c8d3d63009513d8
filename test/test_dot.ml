module Dot = Mechaml_ts.Dot
module Listing = Mechaml_scenarios.Listing
module Compose = Mechaml_ts.Compose
module Run = Mechaml_ts.Run
module Automaton = Mechaml_ts.Automaton
open Helpers

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let simple () =
  automaton ~inputs:[ "x" ] ~outputs:[ "y" ]
    ~states:[ ("a", [ "p" ]) ]
    ~trans:[ ("a", [ "x" ], [ "y" ], "b"); ("b", [], [], "a") ]
    ~initial:[ "a" ] ()

let unit_tests =
  [
    test "dot mentions states, labels and edges" (fun () ->
        let dot = Dot.of_automaton (simple ()) in
        check_bool "digraph" true (contains dot "digraph");
        check_bool "state a" true (contains dot "a");
        check_bool "label p" true (contains dot "[p]");
        check_bool "edge label" true (contains dot "x / y");
        check_bool "initial doublecircle" true (contains dot "doublecircle"));
    test "full fan-out collapses to a star edge" (fun () ->
        let chaotic =
          Mechaml_core.Chaos.chaotic_automaton ~name:"c" ~inputs:[ "i" ] ~outputs:[ "o" ]
        in
        let dot = Dot.of_automaton chaotic in
        check_bool "star edge" true (contains dot "label=\"*\""));
    test "Fig. 3 and Fig. 4(b) regenerate byte-identically" (fun () ->
        let module Chaos = Mechaml_core.Chaos in
        let module Railcab = Mechaml_scenarios.Railcab in
        let committed name =
          In_channel.with_open_bin (Filename.concat "../railcab_figures" (name ^ ".dot"))
            In_channel.input_all
        in
        check_string "fig3_chaotic_automaton" (committed "fig3_chaotic_automaton")
          (Dot.of_automaton
             (Chaos.chaotic_automaton ~name:"chaos" ~inputs:Railcab.front_to_rear
                ~outputs:Railcab.rear_to_front));
        let legacy_props =
          List.filter
            (fun p -> not (Mechaml_ts.Universe.mem Railcab.context.Automaton.props p))
            (Mechaml_logic.Ctl.props Railcab.constraint_)
        in
        let m0 = Mechaml_core.Synthesis.initial_model Railcab.box_correct in
        check_string "fig4b_initial_closure" (committed "fig4b_initial_closure")
          (Dot.of_automaton
             (Chaos.materialize
                (Chaos.closure ~label_of:Railcab.label_of ~extra_props:legacy_props m0))));
    test "highlighting marks states" (fun () ->
        let dot = Dot.of_automaton ~highlight:[ 0 ] (simple ()) in
        check_bool "filled" true (contains dot "lightyellow"));
    test "quotes are escaped" (fun () ->
        let m =
          automaton ~name:"with\"quote" ~inputs:[] ~outputs:[]
            ~trans:[ ("s", [], [], "s") ] ~initial:[ "s" ] ()
        in
        check_bool "escaped" true (contains (Dot.of_automaton m) "\\\""));
    test "save writes the file" (fun () ->
        let path = Filename.temp_file "mechaml" ".dot" in
        Dot.save ~path (Dot.of_automaton (simple ()));
        let ic = open_in path in
        let len = in_channel_length ic in
        close_in ic;
        Sys.remove path;
        check_bool "non-empty" true (len > 0));
    test "listing renderer prints sender and receiver" (fun () ->
        let left =
          automaton ~name:"L" ~inputs:[ "pong" ] ~outputs:[ "ping" ]
            ~trans:[ ("l0", [], [ "ping" ], "l1"); ("l1", [ "pong" ], [], "l0") ]
            ~initial:[ "l0" ] ()
        in
        let right =
          automaton ~name:"R" ~inputs:[ "ping" ] ~outputs:[ "pong" ]
            ~trans:[ ("r0", [ "ping" ], [], "r1"); ("r1", [], [ "pong" ], "r0") ]
            ~initial:[ "r0" ] ()
        in
        let p = Compose.parallel left right in
        let t = List.hd (Automaton.transitions_from p.Compose.auto 0) in
        let run =
          Run.regular ~states:[ 0; t.Automaton.dst ]
            ~io:[ (t.Automaton.input, t.Automaton.output) ]
        in
        let s = Listing.render ~left_name:"alice" ~right_name:"bob" p run in
        check_bool "left state" true (contains s "alice.l0");
        check_bool "right state" true (contains s "bob.r0");
        check_bool "sender marked" true (contains s "alice.ping!");
        check_bool "receiver marked" true (contains s "bob.ping?"));
    test "listing renderer marks deadlock runs" (fun () ->
        let m =
          automaton ~name:"L" ~inputs:[] ~outputs:[] ~trans:[ ("a", [], [], "a") ]
            ~initial:[ "a" ] ()
        in
        let r =
          automaton ~name:"R" ~inputs:[] ~outputs:[] ~trans:[ ("b", [], [], "b") ]
            ~initial:[ "b" ] ()
        in
        let p = Compose.parallel m r in
        let run =
          Run.deadlocking ~states:[ 0 ] ~io:[ (Mechaml_util.Bitset.empty, Mechaml_util.Bitset.empty) ]
        in
        check_bool "deadlock marker" true (contains (Listing.render ~left_name:"l" ~right_name:"r" p run) "<deadlock>"));
  ]

let () = Alcotest.run "dot" [ ("unit", unit_tests) ]
