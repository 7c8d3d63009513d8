(* Property-based tests mechanising the paper's meta-theory on randomly
   generated models: Lemmas 1/2 (refinement vs deadlock freedom and
   composition), ACTL preservation, Theorem 1 (chaotic closure is a safe
   abstraction of any observation-conforming source), Lemma 7 (learning
   preserves conformance), Theorem 2 (loop verdicts agree with ground truth),
   plus checker dualities. *)

module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Compose = Mechaml_ts.Compose
module Refinement = Mechaml_ts.Refinement
module Simulation = Mechaml_ts.Simulation
module Ctl = Mechaml_logic.Ctl
module Sat = Mechaml_mc.Sat

(* the characteristic vector as booleans *)
let sat env f = Mechaml_util.Bitvec.to_bool_array (Mechaml_mc.Eval.sat_vec env f)
module Checker = Mechaml_mc.Checker
module Prng = Mechaml_util.Prng
module Incomplete = Mechaml_core.Incomplete
module Chaos = Mechaml_core.Chaos
module Synthesis = Mechaml_core.Synthesis
module Conformance = Mechaml_core.Conformance
module Loop = Mechaml_core.Loop
module Blackbox = Mechaml_legacy.Blackbox
module Observation = Mechaml_legacy.Observation
module Families = Mechaml_scenarios.Families
open Helpers

let inputs = [ "i1"; "i2" ]

let outputs = [ "o1" ]

let props = [ "p"; "q" ]

(* A random (possibly non-deterministic) labelled automaton from a seed. *)
let random_auto ?(prefix = "m") seed =
  let rng = Prng.create ~seed in
  let n = 1 + Prng.int rng 4 in
  let b =
    Automaton.Builder.create ~name:(prefix ^ string_of_int seed) ~inputs ~outputs ~props ()
  in
  let name i = Printf.sprintf "%s%d" prefix i in
  for i = 0 to n - 1 do
    let lbl = List.filter (fun _ -> Prng.bool rng) props in
    ignore (Automaton.Builder.add_state b ~props:lbl (name i))
  done;
  for i = 0 to n - 1 do
    let k = Prng.int rng 4 in
    for _ = 1 to k do
      let ins = List.filter (fun _ -> Prng.bool rng) inputs in
      let outs = List.filter (fun _ -> Prng.bool rng) outputs in
      Automaton.Builder.add_trans b ~src:(name i) ~inputs:ins ~outputs:outs
        ~dst:(name (Prng.int rng n)) ()
    done
  done;
  Automaton.Builder.set_initial b [ name 0 ];
  Automaton.Builder.build b

(* Split every state in two behaviourally identical copies: the result is
   trace- and refusal-equivalent, hence a (non-trivial) refinement in both
   directions. *)
let split_states seed (m : Automaton.t) =
  let rng = Prng.create ~seed:(seed lxor 0xbeef) in
  let b =
    Automaton.Builder.create ~name:(m.Automaton.name ^ "_split")
      ~inputs:(Universe.to_list m.Automaton.inputs)
      ~outputs:(Universe.to_list m.Automaton.outputs)
      ~props:(Universe.to_list m.Automaton.props) ()
  in
  let copy s i = Automaton.state_name m s ^ "~" ^ string_of_int i in
  let n = Automaton.num_states m in
  for s = 0 to n - 1 do
    let lbl = Universe.names_of_set m.Automaton.props (Automaton.label m s) in
    ignore (Automaton.Builder.add_state b ~props:lbl (copy s 0));
    ignore (Automaton.Builder.add_state b ~props:lbl (copy s 1))
  done;
  for s = 0 to n - 1 do
    List.iter
      (fun (t : Automaton.trans) ->
        let ins = Universe.names_of_set m.Automaton.inputs t.input in
        let outs = Universe.names_of_set m.Automaton.outputs t.output in
        (* each copy gets the transition towards a randomly chosen copy of
           the target — both copies stay trace-equivalent to the original *)
        List.iter
          (fun i ->
            Automaton.Builder.add_trans b ~src:(copy s i) ~inputs:ins ~outputs:outs
              ~dst:(copy t.dst (Prng.int rng 2)) ())
          [ 0; 1 ])
      (Automaton.transitions_from m s)
  done;
  Automaton.Builder.set_initial b [ copy (List.hd m.Automaton.initial) 0 ];
  Automaton.Builder.build b

(* A random ACTL formula over the shared propositions. *)
let random_actl seed =
  let rng = Prng.create ~seed:(seed lxor 0xac71) in
  let literal () =
    let p = Ctl.Prop (Prng.pick rng props) in
    if Prng.bool rng then p else Ctl.Not p
  in
  let rec go depth =
    if depth = 0 then literal ()
    else
      match Prng.int rng 6 with
      | 0 -> Ctl.And (go (depth - 1), go (depth - 1))
      | 1 -> Ctl.Or (go (depth - 1), go (depth - 1))
      | 2 -> Ctl.Ag (None, go (depth - 1))
      | 3 -> Ctl.Ax (go (depth - 1))
      | 4 ->
        let lo = Prng.int rng 2 in
        Ctl.Af (Some (Ctl.bounds lo (lo + Prng.int rng 3)), go (depth - 1))
      | _ -> Ctl.Au (None, go (depth - 1), go (depth - 1))
  in
  go 2

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

let deterministic_legacy seed =
  Families.random_machine ~seed ~states:(2 + (seed mod 4)) ~inputs:[ "u"; "v" ]
    ~outputs:[ "w" ]

let random_word rng alphabet len = List.init len (fun _ -> Prng.pick rng alphabet)

let property_tests =
  [
    qcheck ~count:60 "refinement is reflexive" seed_arb (fun seed ->
        let m = random_auto seed in
        Refinement.refines ~concrete:m ~abstract:m ());
    qcheck ~count:60 "state splitting refines in both directions" seed_arb (fun seed ->
        let m = random_auto seed in
        let s = split_states seed m in
        Refinement.refines ~concrete:s ~abstract:m ()
        && Refinement.refines ~concrete:m ~abstract:s ());
    qcheck ~count:60 "Lemma 1: refinement preserves deadlock freedom" seed_arb (fun seed ->
        let m = random_auto seed in
        let s = split_states seed m in
        (not (Checker.holds m Ctl.deadlock_free)) || Checker.holds s Ctl.deadlock_free);
    qcheck ~count:60 "refinement preserves ACTL properties" seed_arb (fun seed ->
        let m = random_auto seed in
        let s = split_states seed m in
        let phi = random_actl seed in
        (not (Checker.holds m phi)) || Checker.holds s phi);
    qcheck ~count:40 "Lemma 2: composition preserves refinement" seed_arb (fun seed ->
        (* context over disjoint signals, connected to the machine's I/O *)
        let m = random_auto ~prefix:"r" seed in
        let s = split_states seed m in
        let ctx =
          let rng = Prng.create ~seed:(seed + 7) in
          let b =
            Automaton.Builder.create ~name:"ctx" ~inputs:[ "o1" ] ~outputs:[ "i1"; "i2" ] ()
          in
          for i = 0 to 2 do
            let ins = List.filter (fun _ -> Prng.bool rng) [ "o1" ] in
            let outs = List.filter (fun _ -> Prng.bool rng) [ "i1"; "i2" ] in
            Automaton.Builder.add_trans b
              ~src:(Printf.sprintf "c%d" i)
              ~inputs:ins ~outputs:outs
              ~dst:(Printf.sprintf "c%d" (Prng.int rng 3))
              ()
          done;
          Automaton.Builder.set_initial b [ "c0" ];
          Automaton.Builder.build b
        in
        let ps = Compose.parallel ctx s and pm = Compose.parallel ctx m in
        Refinement.refines ~concrete:ps.Compose.auto ~abstract:pm.Compose.auto ());
    qcheck ~count:40 "Theorem 1: closure of learned observations abstracts the component"
      seed_arb
      (fun seed ->
        let real = deterministic_legacy seed in
        let box = Blackbox.of_automaton real in
        let rng = Prng.create ~seed:(seed + 99) in
        let alphabet = [ []; [ "u" ]; [ "v" ] ] in
        (* learn a few random observations *)
        let model =
          List.fold_left
            (fun acc _ ->
              let word = random_word rng alphabet (1 + Prng.int rng 5) in
              Incomplete.learn_observation acc (Observation.observe ~box ~inputs:word))
            (Synthesis.initial_model box)
            (List.init 3 Fun.id)
        in
        Conformance.conforms model real
        && Refinement.refines
             ~label_match:(Simulation.Wildcard Chaos.chaos_prop)
             ~concrete:real
             ~abstract:(Chaos.materialize (Chaos.closure model))
             ());
    qcheck ~count:30 "Theorem 2: loop verdict matches ground truth" seed_arb (fun seed ->
        let legacy = deterministic_legacy seed in
        let context =
          Families.random_context ~seed ~states:3 ~legacy_inputs:[ "u"; "v" ]
            ~legacy_outputs:[ "w" ]
        in
        let r = Loop.run ~context ~property:Ctl.True ~legacy:(Blackbox.of_automaton legacy) () in
        let exact = Compose.parallel context legacy in
        let truth = Checker.holds exact.Compose.auto Ctl.deadlock_free in
        match r.Loop.verdict with
        | Loop.Proved -> truth
        | Loop.Real_violation _ -> not truth
        | Loop.Exhausted _ | Loop.Degraded _ -> false);
    qcheck ~count:30 "Theorem 2 with labelled safety properties" seed_arb (fun seed ->
        let legacy = deterministic_legacy seed in
        let context =
          Families.random_context ~seed:(seed + 23) ~states:3 ~legacy_inputs:[ "u"; "v" ]
            ~legacy_outputs:[ "w" ]
        in
        let label_of s = [ "leg." ^ s ] in
        (* forbid a pseudo-random legacy state *)
        let victim =
          Automaton.state_name legacy (seed mod Automaton.num_states legacy)
        in
        let property = Ctl.ag (Ctl.Not (Ctl.Prop ("leg." ^ victim))) in
        let r =
          Loop.run ~label_of ~context ~property ~legacy:(Blackbox.of_automaton legacy) ()
        in
        let labelled =
          let props =
            List.init (Automaton.num_states legacy) (fun s ->
                label_of (Automaton.state_name legacy s))
            |> List.concat |> List.sort_uniq compare
          in
          let u = Universe.of_list props in
          Automaton.relabel legacy ~props:u (fun s ->
              Universe.set_of_names u (label_of (Automaton.state_name legacy s)))
        in
        let exact = Compose.parallel context labelled in
        let truth =
          Checker.check_conjunction exact.Compose.auto [ property; Ctl.deadlock_free ]
        in
        match (r.Loop.verdict, truth) with
        | Loop.Proved, Checker.Holds -> true
        | Loop.Real_violation _, Checker.Violated _ -> true
        | _ -> false);
    qcheck ~count:30 "loop never learns facts the component does not have" seed_arb
      (fun seed ->
        let legacy = deterministic_legacy seed in
        let context =
          Families.random_context ~seed:(seed * 3) ~states:3 ~legacy_inputs:[ "u"; "v" ]
            ~legacy_outputs:[ "w" ]
        in
        let r = Loop.run ~context ~property:Ctl.True ~legacy:(Blackbox.of_automaton legacy) () in
        Conformance.conforms r.Loop.final_model legacy);
    qcheck ~count:60 "AG duality with EF" seed_arb (fun seed ->
        let m = random_auto seed in
        let env = Sat.create m in
        let p = Ctl.Prop "p" in
        sat env (Ctl.ag p)
        = Array.map not (sat env (Ctl.Ef (None, Ctl.Not p))));
    qcheck ~count:60 "AF duality with EG over maximal runs" seed_arb (fun seed ->
        let m = random_auto seed in
        let env = Sat.create m in
        let p = Ctl.Prop "q" in
        sat env (Ctl.af p) = Array.map not (sat env (Ctl.Eg (None, Ctl.Not p))));
    qcheck ~count:60 "bounded EF windows are monotone" seed_arb (fun seed ->
        let m = random_auto seed in
        let env = Sat.create m in
        let p = Ctl.Prop "p" in
        let upto k = sat env (Ctl.Ef (Some (Ctl.bounds 0 k), p)) in
        let a = upto 2 and b = upto 3 in
        Array.for_all Fun.id (Array.mapi (fun i x -> (not x) || b.(i)) a));
    qcheck ~count:60 "unbounded EF dominates every bounded window" seed_arb (fun seed ->
        let m = random_auto seed in
        let env = Sat.create m in
        let p = Ctl.Prop "q" in
        let bounded = sat env (Ctl.Ef (Some (Ctl.bounds 0 4), p)) in
        let unbounded = sat env (Ctl.Ef (None, p)) in
        Array.for_all Fun.id (Array.mapi (fun i x -> (not x) || unbounded.(i)) bounded));
    qcheck ~count:60 "nnf preserves satisfaction" seed_arb (fun seed ->
        let m = random_auto seed in
        let env = Sat.create m in
        let phi = random_actl seed in
        sat env phi = sat env (Ctl.nnf phi)
        && sat env (Ctl.Not phi) = sat env (Ctl.nnf (Ctl.Not phi)));
    qcheck ~count:60 "printer/parser roundtrip on random ACTL" seed_arb (fun seed ->
        let phi = random_actl seed in
        match Mechaml_logic.Parser.parse (Ctl.to_string phi) with
        | Ok phi' -> Ctl.equal phi phi'
        | Error _ -> false);
    qcheck ~count:30 "L* with a perfect oracle learns random machines" seed_arb (fun seed ->
        let auto = deterministic_legacy seed in
        let alphabet = [ []; [ "u" ]; [ "v" ] ] in
        let truth = Mechaml_learnlib.Mealy.of_automaton ~alphabet auto in
        let r =
          Mechaml_learnlib.Lstar.learn ~box:(Blackbox.of_automaton auto) ~alphabet
            ~equivalence:(Mechaml_learnlib.Lstar.Perfect truth) ()
        in
        Mechaml_learnlib.Mealy.equivalent truth r.Mechaml_learnlib.Lstar.hypothesis = None);
    qcheck ~count:60 "textio roundtrip preserves behaviour on random automata" seed_arb
      (fun seed ->
        let m = random_auto seed in
        let m' = Mechaml_ts.Textio.parse_exn (Mechaml_ts.Textio.print m) in
        Refinement.refines ~concrete:m ~abstract:m' ()
        && Refinement.refines ~concrete:m' ~abstract:m ());
    qcheck ~count:40 "knowledge_io roundtrip preserves learned models" seed_arb (fun seed ->
        let real = deterministic_legacy seed in
        let box = Blackbox.of_automaton real in
        let rng = Prng.create ~seed:(seed + 17) in
        let alphabet = [ []; [ "u" ]; [ "v" ] ] in
        let model =
          List.fold_left
            (fun acc _ ->
              let word = random_word rng alphabet (1 + Prng.int rng 4) in
              Incomplete.learn_observation acc (Observation.observe ~box ~inputs:word))
            (Synthesis.initial_model box)
            (List.init 2 Fun.id)
        in
        let model' =
          Mechaml_core.Knowledge_io.parse_exn (Mechaml_core.Knowledge_io.print model)
        in
        model'.Incomplete.trans = model.Incomplete.trans
        && model'.Incomplete.refusals = model.Incomplete.refusals);
    qcheck ~count:30 "DFA L* learns random targets minimally" seed_arb (fun seed ->
        let target = Mechaml_learnlib.Dfa.random ~seed ~states:5 ~alphabet:[ "a"; "b" ] in
        let minimal = Mechaml_learnlib.Dfa.minimize target in
        let teacher, _ = Mechaml_learnlib.Dfa_lstar.teacher_of_dfa target in
        let r = Mechaml_learnlib.Dfa_lstar.learn ~alphabet:[ "a"; "b" ] ~teacher () in
        Mechaml_learnlib.Dfa.equivalent target r.Mechaml_learnlib.Dfa_lstar.hypothesis = None
        && Mechaml_learnlib.Dfa.num_states r.Mechaml_learnlib.Dfa_lstar.hypothesis
           = Mechaml_learnlib.Dfa.num_states minimal);
    qcheck ~count:30 "batched loops agree with unbatched verdicts" seed_arb (fun seed ->
        let legacy = deterministic_legacy seed in
        let context =
          Families.random_context ~seed:(seed + 9) ~states:3 ~legacy_inputs:[ "u"; "v" ]
            ~legacy_outputs:[ "w" ]
        in
        let verdict k =
          match
            (Loop.run ~counterexamples_per_iteration:k ~context ~property:Ctl.True
               ~legacy:(Blackbox.of_automaton legacy) ())
              .Loop.verdict
          with
          | Loop.Proved -> `P
          | Loop.Real_violation _ -> `V
          | Loop.Exhausted _ -> `E
          | Loop.Degraded _ -> `D
        in
        verdict 1 = verdict 3);
    qcheck ~count:40 "composition projections are genuine runs" seed_arb (fun seed ->
        let legacy = deterministic_legacy seed in
        let context =
          Families.random_context ~seed:(seed + 1) ~states:3 ~legacy_inputs:[ "u"; "v" ]
            ~legacy_outputs:[ "w" ]
        in
        let p = Compose.parallel context legacy in
        match Mechaml_ts.Reach.shortest_run_to p.Compose.auto (fun _ -> true) with
        | None -> true
        | Some _ ->
          (* walk a short random run of the product and project it *)
          let rng = Prng.create ~seed in
          let rec walk s n acc =
            if n = 0 then List.rev acc
            else
              match Automaton.transitions_from p.Compose.auto s with
              | [] -> List.rev acc
              | ts ->
                let t = Prng.pick rng ts in
                walk t.Automaton.dst (n - 1) ((s, t) :: acc)
          in
          let steps = walk (List.hd p.Compose.auto.Automaton.initial) 4 [] in
          if steps = [] then true
          else begin
            let states =
              List.map fst steps @ [ (snd (List.nth steps (List.length steps - 1))).Automaton.dst ]
            in
            let io = List.map (fun (_, t) -> (t.Automaton.input, t.Automaton.output)) steps in
            let run = Mechaml_ts.Run.regular ~states ~io in
            Mechaml_ts.Run.is_run_of p.Compose.left (Compose.project_left p run)
            && Mechaml_ts.Run.is_run_of p.Compose.right (Compose.project_right p run)
          end);
  ]

let () = Alcotest.run "properties" [ ("qcheck", property_tests) ]
