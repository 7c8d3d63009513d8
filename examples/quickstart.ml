(* Quickstart: integrate a tiny legacy component against a modelled context.

   The walkthrough mirrors the paper's process end to end on a two-button
   device: we model the context (a driver that presses buttons) as an
   automaton, wrap the legacy component (here: a simulated implementation we
   pretend is opaque) as a black box, state the property, and let the
   iterative behavior synthesis either prove the integration or produce a
   real counterexample — learning only as much of the component as the
   context can reach.

   Run with: dune exec examples/quickstart.exe *)

module Automaton = Mechaml_ts.Automaton
module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Blackbox = Mechaml_legacy.Blackbox

(* 1. The legacy component: a lamp that toggles on "press" and reports
   "burnt" after three toggles.  In a real integration this would be a
   binary we can only execute; here it is an automaton wrapped so that the
   loop sees nothing but its interface. *)
let lamp =
  let b =
    Automaton.Builder.create ~name:"lamp" ~inputs:[ "press" ] ~outputs:[ "burnt" ] ()
  in
  Automaton.Builder.add_trans b ~src:"off" ~inputs:[ "press" ] ~dst:"on" ();
  Automaton.Builder.add_trans b ~src:"off" ~dst:"off" ();
  Automaton.Builder.add_trans b ~src:"on" ~inputs:[ "press" ] ~dst:"off2" ();
  Automaton.Builder.add_trans b ~src:"on" ~dst:"on" ();
  Automaton.Builder.add_trans b ~src:"off2" ~inputs:[ "press" ] ~outputs:[ "burnt" ] ~dst:"dead" ();
  Automaton.Builder.add_trans b ~src:"off2" ~dst:"off2" ();
  Automaton.Builder.add_trans b ~src:"dead" ~dst:"dead" ();
  Automaton.Builder.set_initial b [ "off" ];
  Automaton.Builder.build b

let box = Blackbox.of_automaton ~port:"button" lamp

(* 2. The context: a driver that presses the button at most twice and then
   leaves the lamp alone.  Its outputs feed the lamp's inputs and vice
   versa. *)
let driver =
  let b =
    Automaton.Builder.create ~name:"driver" ~inputs:[ "burnt" ] ~outputs:[ "press" ] ()
  in
  Automaton.Builder.add_trans b ~src:"fresh" ~outputs:[ "press" ] ~dst:"once" ();
  Automaton.Builder.add_trans b ~src:"once" ~outputs:[ "press" ] ~dst:"done" ();
  Automaton.Builder.add_trans b ~src:"once" ~dst:"once" ();
  Automaton.Builder.add_trans b ~src:"done" ~dst:"done" ();
  Automaton.Builder.set_initial b [ "fresh" ];
  Automaton.Builder.build b

(* 3. The property: the lamp must never burn out under this driver.  The
   proposition names the legacy component's probed state. *)
let property = Mechaml_logic.Parser.parse_exn "AG (not lamp.dead)"

let label_of state = [ "lamp." ^ state ]

let () =
  Format.printf "== Quickstart: correct legacy component integration ==@.@.";
  Format.printf "Context model:@.%a@." Automaton.pp driver;
  let result = Loop.run ~label_of ~context:driver ~property ~legacy:box () in
  Format.printf "%a@.@." Loop.pp_result result;
  Format.printf "Learned behavioural model (M_l^n):@.%a@." Incomplete.pp
    result.Loop.final_model;
  (match result.Loop.verdict with
  | Loop.Proved ->
    Format.printf
      "@.The integration is PROVED correct: the driver presses at most twice,@.so the \
       burn-out state is unreachable — established after learning %d of the@.component's \
       %d states, with %d test executions and no equivalence check.@."
      result.Loop.states_learned
      (Automaton.num_states lamp)
      result.Loop.tests_executed
  | Loop.Real_violation _ -> Format.printf "@.Unexpected: a real violation was found.@."
  | Loop.Exhausted _ -> Format.printf "@.Iteration budget exhausted.@."
  | Loop.Degraded _ -> Format.printf "@.Unexpected: the driver degraded.@.");
  (* 4. The same loop with a reckless driver that keeps pressing: the
     verification finds the real burn-out, demonstrated by a counterexample
     that replays on the component. *)
  Format.printf "@.== Same component, reckless driver ==@.@.";
  let reckless =
    let b =
      Automaton.Builder.create ~name:"driver" ~inputs:[ "burnt" ] ~outputs:[ "press" ] ()
    in
    Automaton.Builder.add_trans b ~src:"go" ~outputs:[ "press" ] ~dst:"go" ();
    Automaton.Builder.add_trans b ~src:"go" ~inputs:[ "burnt" ] ~outputs:[ "press" ] ~dst:"go" ();
    Automaton.Builder.set_initial b [ "go" ];
    Automaton.Builder.build b
  in
  let result = Loop.run ~label_of ~context:reckless ~property ~legacy:box () in
  Format.printf "%a@.@." Loop.pp_result result;
  match result.Loop.verdict with
  | Loop.Real_violation { kind; witness; product; _ } ->
    let product = Lazy.force product in
    Format.printf "Real %s found; counterexample:@.%s@."
      (match kind with Loop.Deadlock -> "deadlock" | Loop.Property -> "property violation")
      (Mechaml_scenarios.Listing.render ~left_name:"driver" ~right_name:"lamp" product witness)
  | _ -> Format.printf "Unexpected verdict.@."
