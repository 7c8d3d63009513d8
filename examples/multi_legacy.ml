(* Multiple legacy components (the paper's Section 7 extension): a gateway
   context polls two independently developed legacy sensors.  Both sensors
   are black boxes; the loop runs against their parallel combination and
   improves both behavioural models at once, then splits the learned product
   model back into one incomplete automaton per component.

   Sensor A needs a cool-down period between polls; the correct gateway
   alternates A and B, the hasty gateway polls A twice in a row and jams.

   Run with: dune exec examples/multi_legacy.exe *)

module Automaton = Mechaml_ts.Automaton
module Multi = Mechaml_core.Multi
module Loop = Mechaml_core.Loop
module Incomplete = Mechaml_core.Incomplete
module Blackbox = Mechaml_legacy.Blackbox
module Listing = Mechaml_scenarios.Listing

let sensor_a =
  let b = Automaton.Builder.create ~name:"sensorA" ~inputs:[ "pollA" ] ~outputs:[ "okA" ] () in
  Automaton.Builder.add_trans b ~src:"ready" ~inputs:[ "pollA" ] ~outputs:[ "okA" ] ~dst:"cooldown" ();
  Automaton.Builder.add_trans b ~src:"ready" ~dst:"ready" ();
  (* during the cool-down the sensor refuses polls — only silence is accepted *)
  Automaton.Builder.add_trans b ~src:"cooldown" ~dst:"ready" ();
  Automaton.Builder.set_initial b [ "ready" ];
  Automaton.Builder.build b

let sensor_b =
  let b = Automaton.Builder.create ~name:"sensorB" ~inputs:[ "pollB" ] ~outputs:[ "okB" ] () in
  Automaton.Builder.add_trans b ~src:"ready" ~inputs:[ "pollB" ] ~outputs:[ "okB" ] ~dst:"ready" ();
  Automaton.Builder.add_trans b ~src:"ready" ~dst:"ready" ();
  Automaton.Builder.set_initial b [ "ready" ];
  Automaton.Builder.build b

let box_a = Blackbox.of_automaton ~port:"sensorA" sensor_a

let box_b = Blackbox.of_automaton ~port:"sensorB" sensor_b

(* The gateway polls and consumes the answer within the period (synchronous
   communication), alternating between the sensors. *)
let gateway alternating =
  let b =
    Automaton.Builder.create ~name:"gateway" ~inputs:[ "okA"; "okB" ]
      ~outputs:[ "pollA"; "pollB" ] ()
  in
  if alternating then begin
    Automaton.Builder.add_trans b ~src:"askA" ~inputs:[ "okA" ] ~outputs:[ "pollA" ] ~dst:"askB" ();
    Automaton.Builder.add_trans b ~src:"askB" ~inputs:[ "okB" ] ~outputs:[ "pollB" ] ~dst:"askA" ()
  end
  else begin
    (* hasty: A, A again (no cool-down respected), then B *)
    Automaton.Builder.add_trans b ~src:"askA" ~inputs:[ "okA" ] ~outputs:[ "pollA" ] ~dst:"askA2" ();
    Automaton.Builder.add_trans b ~src:"askA2" ~inputs:[ "okA" ] ~outputs:[ "pollA" ] ~dst:"askB" ();
    Automaton.Builder.add_trans b ~src:"askB" ~inputs:[ "okB" ] ~outputs:[ "pollB" ] ~dst:"askA" ()
  end;
  Automaton.Builder.set_initial b [ "askA" ];
  Automaton.Builder.build b

let label_of =
  Multi.joint_labels [ (fun s -> [ "sensorA." ^ s ]); (fun s -> [ "sensorB." ^ s ]) ]

let show name r =
  Format.printf "== %s ==@.@.%a@.@." name Loop.pp_result r.Multi.loop;
  (match r.Multi.loop.Loop.verdict with
  | Loop.Real_violation { witness; product; _ } ->
    let product = Lazy.force product in
    Format.printf "Counterexample:@.%s@."
      (Listing.render ~left_name:"gateway" ~right_name:"sensors" product witness)
  | _ -> ());
  List.iter
    (fun (component, model) ->
      Format.printf "Learned model of %s:@.%a@." component Incomplete.pp model)
    r.Multi.component_models

let () =
  let property = Mechaml_logic.Ctl.True in
  show "Alternating gateway (correct)"
    (Multi.run ~label_of ~context:(gateway true) ~property ~legacies:[ box_a; box_b ] ());
  show "Hasty gateway (violates sensor A's cool-down)"
    (Multi.run ~label_of ~context:(gateway false) ~property ~legacies:[ box_a; box_b ] ())
