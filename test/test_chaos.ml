module Chaos = Mechaml_core.Chaos
module Incomplete = Mechaml_core.Incomplete
module Synthesis = Mechaml_core.Synthesis
module Automaton = Mechaml_ts.Automaton
module Refinement = Mechaml_ts.Refinement
module Simulation = Mechaml_ts.Simulation
module Blackbox = Mechaml_legacy.Blackbox
open Helpers

let i ~inputs ~outputs = Incomplete.interaction ~inputs ~outputs

let unit_tests =
  [
    test "chaotic automaton has the Definition 8 shape (Fig. 3)" (fun () ->
        let m = Chaos.chaotic_automaton ~name:"c" ~inputs:[ "a" ] ~outputs:[ "b" ] in
        check_int "two states" 2 (Automaton.num_states m);
        check_int "both initial" 2 (List.length m.Automaton.initial);
        (* s_all: every (A,B) to both states = 2^2 * 2 transitions *)
        check_int "transitions" 8 (Automaton.num_transitions m);
        let s_delta = Automaton.state_index m Chaos.s_delta in
        check_bool "s_delta blocks everything" true (Automaton.is_blocking m s_delta);
        check_bool "chaos proposition set" true
          (Automaton.has_prop m s_delta Chaos.chaos_prop));
    test "alphabet size guard" (fun () ->
        let many = List.init (Chaos.max_alphabet + 1) (Printf.sprintf "s%d") in
        match Chaos.chaotic_automaton ~name:"c" ~inputs:many ~outputs:[] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "17-wide alphabets fit under the raised cap" (fun () ->
        (* 17 signals used to exceed the hard |I| + |O| <= 16 limit *)
        let many = List.init 17 (Printf.sprintf "s%d") in
        let m = Chaos.chaotic_automaton ~name:"c" ~inputs:many ~outputs:[] in
        check_int "one transition per interaction and chaos target" (2 * (1 lsl 17))
          (Automaton.num_transitions m));
    test "21-wide alphabets fit under the 30-signal cap" (fun () ->
        (* 21 signals used to exceed the previous |I| + |O| <= 20 limit *)
        let many = List.init 21 (Printf.sprintf "s%d") in
        let m = Chaos.chaotic_automaton ~name:"c" ~inputs:many ~outputs:[] in
        check_int "one transition per interaction and chaos target" (2 * (1 lsl 21))
          (Automaton.num_transitions m));
    test "closure of the trivial model matches Fig. 4(b)" (fun () ->
        let m = Incomplete.create ~name:"m" ~inputs:[ "x" ] ~outputs:[ "o" ] ~initial_state:"s0" in
        let c = Chaos.closure m in
        (* states: s0 (open), s0@0 (closed), s_all, s_delta *)
        check_int "four states" 4 (Automaton.num_states c);
        check_int "both copies initial" 2 (List.length c.Automaton.initial);
        let closed = Automaton.state_index c ("s0" ^ Chaos.closed_suffix) in
        check_bool "closed copy blocks (nothing known)" true (Automaton.is_blocking c closed);
        let open_ = Automaton.state_index c "s0" in
        (* open copy: all 4 interactions to both chaos states, as one escape *)
        check_int "no explicit transitions" 0 (List.length (Automaton.transitions_from c open_));
        check_int "open copy fan-out" 8
          (List.length (Automaton.transitions_from (Chaos.materialize c) open_));
        check_int "counted without enumerating" 16 (Automaton.num_transitions c));
    test "origin classifies closure state names" (fun () ->
        check_bool "s_all chaotic" true (Chaos.origin Chaos.s_all = Chaos.Chaotic);
        check_bool "s_delta chaotic" true (Chaos.origin Chaos.s_delta = Chaos.Chaotic);
        check_bool "open copy" true (Chaos.origin "noConvoy" = Chaos.Core "noConvoy");
        check_bool "closed copy" true
          (Chaos.origin ("noConvoy" ^ Chaos.closed_suffix) = Chaos.Core "noConvoy"));
    test "known transitions are copied to all four copy pairs" (fun () ->
        let m =
          Incomplete.add_transition
            (Incomplete.create ~name:"m" ~inputs:[ "x" ] ~outputs:[] ~initial_state:"s0")
            ~src:"s0" (i ~inputs:[ "x" ] ~outputs:[]) ~dst:"s1"
        in
        let c = Chaos.closure m in
        let x = Mechaml_ts.Universe.set_of_names c.Automaton.inputs [ "x" ] in
        let closed = Automaton.state_index c ("s0" ^ Chaos.closed_suffix) in
        let succ = Automaton.successors c closed x Mechaml_util.Bitset.empty in
        Alcotest.(check (list string)) "closed copy reaches both copies of s1"
          [ "s1"; "s1" ^ Chaos.closed_suffix ]
          (List.sort compare (List.map (Automaton.state_name c) succ)));
    test "determinism sharpening: known inputs do not escape to chaos" (fun () ->
        let m =
          Incomplete.add_transition
            (Incomplete.create ~name:"m" ~inputs:[ "x" ] ~outputs:[ "o" ] ~initial_state:"s0")
            ~src:"s0" (i ~inputs:[ "x" ] ~outputs:[]) ~dst:"s0"
        in
        let c = Chaos.closure m in
        let x = Mechaml_ts.Universe.set_of_names c.Automaton.inputs [ "x" ] in
        let o = Mechaml_ts.Universe.set_of_names c.Automaton.outputs [ "o" ] in
        let open_ = Automaton.state_index c "s0" in
        (* (x, {o}) would contradict the known response (x, {}) *)
        check_bool "no chaotic variant of a known input" false
          (Automaton.accepts c open_ x o));
    test "refused inputs do not escape to chaos" (fun () ->
        let m =
          Incomplete.add_refusal
            (Incomplete.create ~name:"m" ~inputs:[ "x" ] ~outputs:[] ~initial_state:"s0")
            ~state:"s0" ~inputs:[ "x" ]
        in
        let c = Chaos.closure m in
        let x = Mechaml_ts.Universe.set_of_names c.Automaton.inputs [ "x" ] in
        let open_ = Automaton.state_index c "s0" in
        check_bool "refused input not accepted" false
          (Automaton.accepts c open_ x Mechaml_util.Bitset.empty));
    test "label_of labels the copies, chaos keeps p_chaos" (fun () ->
        let m = Incomplete.create ~name:"m" ~inputs:[] ~outputs:[] ~initial_state:"s0" in
        let c = Chaos.closure ~label_of:(fun s -> [ "role." ^ s ]) m in
        check_bool "open copy labelled" true
          (Automaton.has_prop c (Automaton.state_index c "s0") "role.s0");
        check_bool "closed copy labelled" true
          (Automaton.has_prop c (Automaton.state_index c ("s0" ^ Chaos.closed_suffix)) "role.s0");
        check_bool "chaos labelled p_chaos only" true
          (Automaton.has_prop c (Automaton.state_index c Chaos.s_all) Chaos.chaos_prop));
    test "extra_props extend the universe" (fun () ->
        let m = Incomplete.create ~name:"m" ~inputs:[] ~outputs:[] ~initial_state:"s0" in
        let c = Chaos.closure ~extra_props:[ "role.future" ] m in
        check_bool "declared" true (Mechaml_ts.Universe.mem c.Automaton.props "role.future"));
    test "state names colliding with the construction are rejected" (fun () ->
        let bad = Incomplete.create ~name:"m" ~inputs:[] ~outputs:[] ~initial_state:Chaos.s_all in
        (match Chaos.closure bad with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "s_all collision");
        let bad2 =
          Incomplete.create ~name:"m" ~inputs:[] ~outputs:[] ~initial_state:("x" ^ Chaos.closed_suffix)
        in
        match Chaos.closure bad2 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "suffix collision");
    test "Theorem 1: the real component refines the initial closure" (fun () ->
        let real = Mechaml_scenarios.Railcab.legacy_correct in
        let box = Blackbox.of_automaton real in
        let closure = Synthesis.initial_abstraction box in
        check_bool "M_r ⊑ chaos(M_l0)" true
          (Refinement.refines
             ~label_match:(Simulation.Wildcard Chaos.chaos_prop)
             ~concrete:real ~abstract:(Chaos.materialize closure) ()));
    test "Theorem 1 holds after learning a real observation" (fun () ->
        let real = Mechaml_scenarios.Railcab.legacy_correct in
        let box = Blackbox.of_automaton real in
        let obs = Mechaml_legacy.Observation.observe ~box ~inputs:[ []; [ "startConvoy" ]; [] ] in
        let learned = Incomplete.learn_observation (Synthesis.initial_model box) obs in
        let closure = Chaos.closure learned in
        check_bool "M_r ⊑ chaos(learn(M, pi))" true
          (Refinement.refines
             ~label_match:(Simulation.Wildcard Chaos.chaos_prop)
             ~concrete:real ~abstract:(Chaos.materialize closure) ()));
    test "closure of a model with a WRONG fact is not an abstraction" (fun () ->
        let real = Mechaml_scenarios.Railcab.legacy_correct in
        let box = Blackbox.of_automaton real in
        (* claim the component refuses silence initially — it does not *)
        let wrong =
          Incomplete.add_refusal (Synthesis.initial_model box) ~state:"noConvoy::default"
            ~inputs:[]
        in
        let closure = Chaos.closure wrong in
        check_bool "refinement fails" false
          (Refinement.refines
             ~label_match:(Simulation.Wildcard Chaos.chaos_prop)
             ~concrete:real ~abstract:(Chaos.materialize closure) ()));
    test "a 40-signal closure is built; only its materialization is capped" (fun () ->
        let names p k = List.init k (Printf.sprintf "%s%d" p) in
        let m =
          Incomplete.create ~name:"w" ~inputs:(names "i" 22) ~outputs:(names "o" 18)
            ~initial_state:"s0"
        in
        let c = Chaos.closure m in
        (* the open copy and s_all each cover 2^40 interactions, twice *)
        check_int "counted transitions" (2 * 2 * (1 lsl 40)) (Automaton.num_transitions c);
        match Chaos.materialize c with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "materialized past max_alphabet");
  ]

let () = Alcotest.run "chaos" [ ("unit", unit_tests) ]
