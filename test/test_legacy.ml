module Blackbox = Mechaml_legacy.Blackbox
module Monitor = Mechaml_legacy.Monitor
module Replay = Mechaml_legacy.Replay
module Observation = Mechaml_legacy.Observation
module Event = Mechaml_legacy.Event
open Helpers

(* The paper's correct rear-role component, reduced: propose, await reply. *)
let machine () =
  automaton ~name:"shuttle2" ~inputs:[ "rejected"; "start" ] ~outputs:[ "proposal" ]
    ~trans:
      [
        ("noConvoy::default", [], [ "proposal" ], "noConvoy::wait");
        ("noConvoy::wait", [ "rejected" ], [], "noConvoy::default");
        ("noConvoy::wait", [ "start" ], [], "convoy");
        ("convoy", [], [], "convoy");
      ]
    ~initial:[ "noConvoy::default" ] ()

let box () = Blackbox.of_automaton ~port:"rearRole" (machine ())

let unit_tests =
  [
    test "blackbox exposes the structural interface" (fun () ->
        let b = box () in
        Alcotest.(check (list string)) "inputs" [ "rejected"; "start" ] b.Blackbox.input_signals;
        Alcotest.(check (list string)) "outputs" [ "proposal" ] b.Blackbox.output_signals;
        check_string "initial" "noConvoy::default" b.Blackbox.initial_state;
        check_int "bound" 3 b.Blackbox.state_bound);
    test "sessions are independent" (fun () ->
        let b = box () in
        let s1 = b.Blackbox.connect () and s2 = b.Blackbox.connect () in
        ignore (s1.Blackbox.step ~inputs:[]);
        check_string "s1 advanced" "noConvoy::wait" (s1.Blackbox.probe_state ());
        check_string "s2 untouched" "noConvoy::default" (s2.Blackbox.probe_state ()));
    test "step returns outputs and refusals do not advance" (fun () ->
        let b = box () in
        let s = b.Blackbox.connect () in
        (match s.Blackbox.step ~inputs:[] with
        | Some outs -> Alcotest.(check (list string)) "proposal" [ "proposal" ] outs
        | None -> Alcotest.fail "should emit proposal");
        (* in wait, silence is refused *)
        check_bool "refused" true (s.Blackbox.step ~inputs:[] = None);
        check_string "still waiting" "noConvoy::wait" (s.Blackbox.probe_state ());
        check_bool "then accepts start" true (s.Blackbox.step ~inputs:[ "start" ] <> None));
    test "of_automaton rejects non-deterministic machines" (fun () ->
        let nondet =
          automaton ~inputs:[ "x" ] ~outputs:[]
            ~trans:[ ("a", [ "x" ], [], "a"); ("a", [ "x" ], [], "b"); ("b", [], [], "b") ]
            ~initial:[ "a" ] ()
        in
        match Blackbox.of_automaton nondet with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "signals_consistent compares by name" (fun () ->
        let b = box () in
        let u = Mechaml_ts.Universe.of_list in
        check_bool "matches" true
          (Blackbox.signals_consistent b (u [ "start"; "rejected" ]) (u [ "proposal" ]));
        check_bool "mismatch" false
          (Blackbox.signals_consistent b (u [ "start" ]) (u [ "proposal" ])));
    test "minimal monitoring records only messages (Listing 1.2)" (fun () ->
        let outcome =
          Monitor.run ~box:(box ()) ~instrumentation:Monitor.Minimal
            ~inputs:[ []; [ "rejected" ] ]
        in
        check_bool "no state events" true
          (List.for_all
             (function Event.Current_state _ | Event.Timing _ -> false | _ -> true)
             outcome.Monitor.events);
        Alcotest.(check (list string)) "message names" [ "proposal"; "rejected" ]
          (List.map fst (Event.messages outcome.Monitor.events)));
    test "full monitoring adds states and timing (Listing 1.3/1.5)" (fun () ->
        let outcome =
          Monitor.run ~box:(box ()) ~instrumentation:Monitor.Full ~inputs:[ []; [ "rejected" ] ]
        in
        let kinds =
          List.map
            (function
              | Event.Current_state _ -> "state"
              | Event.Message _ -> "msg"
              | Event.Timing _ -> "time")
            outcome.Monitor.events
        in
        Alcotest.(check (list string)) "event order"
          [ "state"; "msg"; "time"; "state"; "msg"; "time" ]
          kinds;
        Alcotest.(check (list string)) "visited states"
          [ "noConvoy::default"; "noConvoy::wait"; "noConvoy::default" ]
          outcome.Monitor.states);
    test "monitoring stops at a refusal" (fun () ->
        let outcome =
          Monitor.run ~box:(box ()) ~instrumentation:Monitor.Full
            ~inputs:[ []; []; [ "start" ] ]
        in
        Alcotest.(check (option (list string))) "blocked on silence" (Some [])
          outcome.Monitor.blocked;
        check_int "one period executed" 1 (List.length outcome.Monitor.outputs));
    test "record captures only executed periods" (fun () ->
        let recording = Replay.record ~box:(box ()) ~inputs:[ []; []; [ "start" ] ] in
        check_int "one period" 1 (List.length recording.Replay.inputs);
        check_bool "blocked noted" true (recording.Replay.blocked <> None));
    test "replay reproduces the recording with full probes" (fun () ->
        let recording = Replay.record ~box:(box ()) ~inputs:[ []; [ "start" ] ] in
        let outcome = Replay.replay ~box:(box ()) recording in
        Alcotest.(check (list string)) "states probed"
          [ "noConvoy::default"; "noConvoy::wait"; "convoy" ]
          outcome.Monitor.states;
        check_bool "timing recorded" true
          (List.exists (function Event.Timing _ -> true | _ -> false) outcome.Monitor.events));
    test "event rendering matches the paper's listing syntax" (fun () ->
        let line =
          Format.asprintf "%a" Event.pp
            (Event.Message { name = "convoyProposal"; port = "rearRole"; direction = Event.Outgoing })
        in
        check_string "exact" "[Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"" line;
        check_string "state" "[CurrentState] name=\"noConvoy\""
          (Format.asprintf "%a" Event.pp (Event.Current_state { name = "noConvoy" }));
        check_string "timing" "[Timing] count=1"
          (Format.asprintf "%a" Event.pp (Event.Timing { count = 1 })));
    test "observation zips states with interactions" (fun () ->
        let o = Observation.observe ~box:(box ()) ~inputs:[ []; [ "start" ] ] in
        check_string "initial" "noConvoy::default" o.Observation.initial_state;
        check_int "2 steps" 2 (Observation.length o);
        let step = List.nth o.Observation.steps 1 in
        check_string "pre" "noConvoy::wait" step.Observation.pre_state;
        check_string "post" "convoy" step.Observation.post_state;
        check_bool "no refusal" true (o.Observation.refused = None));
    test "observation captures the refusal state" (fun () ->
        let o = Observation.observe ~box:(box ()) ~inputs:[ []; [] ] in
        match o.Observation.refused with
        | Some (state, inputs) ->
          check_string "refusing state" "noConvoy::wait" state;
          Alcotest.(check (list string)) "refused inputs" [] inputs
        | None -> Alcotest.fail "wait refuses silence");
  ]

(* -- replay over random partial machines -------------------------------------

   A random input-deterministic machine over inputs {a, b} where each state
   answers only some of the input sets, driven by random input sequences that
   may also offer the never-accepted {a, b}: the recording must keep exactly
   the periods the machine executed, and stop at the first one it refused. *)

let replay_case =
  let open QCheck.Gen in
  let sets = [ []; [ "a" ]; [ "b" ] ] in
  let gen =
    int_range 1 4 >>= fun n ->
    let state i = Printf.sprintf "s%d" i in
    let row i =
      flatten_l
        (List.map
           (fun ins ->
             bool >>= fun answered ->
             int_bound (n - 1) >>= fun dst ->
             bool >|= fun emit ->
             if answered then [ (state i, ins, (if emit then [ "x" ] else []), state dst) ]
             else [])
           sets)
      >|= List.concat
    in
    flatten_l (List.init n row) >>= fun trans ->
    list_size (int_bound 30) (oneofl ([ "a"; "b" ] :: sets)) >|= fun inputs ->
    (n, List.concat trans, inputs)
  in
  QCheck.make gen ~print:(fun (n, trans, inputs) ->
      Printf.sprintf "%d states, %d transitions, inputs %s" n (List.length trans)
        (String.concat " " (List.map (fun i -> "{" ^ String.concat "," i ^ "}") inputs)))

let replay_prefix_prop (n, trans, inputs) =
  let m =
    automaton ~name:"partial" ~inputs:[ "a"; "b" ] ~outputs:[ "x" ]
      ~states:(List.init n (fun i -> (Printf.sprintf "s%d" i, [])))
      ~trans ~initial:[ "s0" ] ()
  in
  let box = Blackbox.of_automaton ~port:"p" m in
  (* reference semantics, straight off the transition list *)
  let rec expect state executed = function
    | [] -> (List.rev executed, None)
    | ins :: rest -> (
      match List.find_opt (fun (src, i, _, _) -> src = state && i = ins) trans with
      | Some (_, _, _, dst) -> expect dst (ins :: executed) rest
      | None -> (List.rev executed, Some ins))
  in
  let executed, blocked = expect "s0" [] inputs in
  let recording, outcome = Replay.observe_full ~box ~inputs in
  recording.Replay.inputs = executed
  && List.length recording.Replay.inputs = List.length outcome.Monitor.outputs
  && recording.Replay.blocked = blocked
  && Observation.length (Observation.observe ~box ~inputs) = List.length executed

(* Recording is linear in the run: a long observation of a random complete
   machine stays far below the time a per-period rescan of the outputs
   would take (seconds at this length). *)
let long_observation () =
  let inputs = [ "i0"; "i1"; "i2" ] in
  let m =
    Mechaml_scenarios.Families.random_machine ~seed:7 ~states:6 ~inputs ~outputs:[ "o0"; "o1" ]
  in
  let rng = Random.State.make [| 7 |] in
  let choices = [| []; [ "i0" ]; [ "i1" ]; [ "i2" ] |] in
  let steps = 100_000 in
  let run = List.init steps (fun _ -> choices.(Random.State.int rng 4)) in
  let t0 = Unix.gettimeofday () in
  let o = Observation.observe ~box:(Blackbox.of_automaton ~port:"p" m) ~inputs:run in
  let dt = Unix.gettimeofday () -. t0 in
  check_int "every period executed" steps (Observation.length o);
  if dt > 5. then Alcotest.failf "100k-step observation took %.2f s (bound 5 s)" dt

let replay_tests =
  [
    qcheck ~count:300 "record keeps exactly the executed prefix" replay_case replay_prefix_prop;
    test "a 100k-step observation is linear" long_observation;
  ]

let () = Alcotest.run "legacy" [ ("unit", unit_tests @ replay_tests) ]
