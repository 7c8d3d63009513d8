module Ctl = Mechaml_logic.Ctl
module Simplify = Mechaml_logic.Simplify
module Parser = Mechaml_logic.Parser
module Sat = Mechaml_mc.Sat

(* the characteristic vector as booleans *)
let sat env f = Mechaml_util.Bitvec.to_bool_array (Mechaml_mc.Eval.sat_vec env f)
module Prng = Mechaml_util.Prng
open Helpers

let s f = Simplify.simplify (Parser.parse_exn f)

let expect input output =
  test (Printf.sprintf "%s ~> %s" input output) (fun () ->
      check_bool "simplified" true (Ctl.equal (s input) (Parser.parse_exn output)))

let unit_tests =
  [
    expect "p and true" "p";
    expect "true and p" "p";
    expect "p and false" "false";
    expect "p or false" "p";
    expect "p or true" "true";
    expect "p and p" "p";
    expect "p or p" "p";
    expect "not (not p)" "p";
    expect "not true" "false";
    expect "true -> p" "p";
    expect "false -> p" "true";
    expect "p -> true" "true";
    expect "p -> p" "true";
    expect "AG true" "true";
    expect "AG false" "false";
    expect "E<> false" "false";
    expect "AF true" "true";
    expect "EX true" "not deadlock";
    expect "AX false" "deadlock";
    expect "AX true" "true";
    expect "A (p U true)" "true";
    expect "E (p U false)" "false";
    expect "AG ((p or false) and true)" "AG p";
    test "bounded eventualities over true are NOT folded" (fun () ->
        check_bool "AF[2,3] true kept" true
          (Ctl.equal (s "AF[2,3] true") (Parser.parse_exn "AF[2,3] true"));
        check_bool "AG[2,3] false kept" true
          (Ctl.equal (s "AG[2,3] false") (Parser.parse_exn "AG[2,3] false")));
    test "idempotent" (fun () ->
        let f = Parser.parse_exn "AG ((not (p and true)) or AF[1,3] (q or q))" in
        let once = Simplify.simplify f in
        check_bool "fixed point" true (Ctl.equal once (Simplify.simplify once)));
  ]

(* random automata / formulas as in test_properties, specialised here *)
let random_auto seed =
  let rng = Prng.create ~seed in
  let n = 1 + Prng.int rng 4 in
  let b =
    Mechaml_ts.Automaton.Builder.create ~name:"m" ~inputs:[ "i" ] ~outputs:[]
      ~props:[ "p"; "q" ] ()
  in
  let name i = Printf.sprintf "s%d" i in
  for i = 0 to n - 1 do
    let lbl = List.filter (fun _ -> Prng.bool rng) [ "p"; "q" ] in
    ignore (Mechaml_ts.Automaton.Builder.add_state b ~props:lbl (name i))
  done;
  for i = 0 to n - 1 do
    for _ = 1 to Prng.int rng 3 do
      let ins = if Prng.bool rng then [ "i" ] else [] in
      Mechaml_ts.Automaton.Builder.add_trans b ~src:(name i) ~inputs:ins
        ~dst:(name (Prng.int rng n)) ()
    done
  done;
  Mechaml_ts.Automaton.Builder.set_initial b [ name 0 ];
  Mechaml_ts.Automaton.Builder.build b

let random_formula seed =
  let rng = Prng.create ~seed:(seed lxor 0x51317) in
  let atom () =
    Prng.pick rng [ Ctl.True; Ctl.False; Ctl.Prop "p"; Ctl.Prop "q"; Ctl.Deadlock ]
  in
  let rec go depth =
    if depth = 0 then atom ()
    else
      match Prng.int rng 10 with
      | 0 -> Ctl.Not (go (depth - 1))
      | 1 -> Ctl.And (go (depth - 1), go (depth - 1))
      | 2 -> Ctl.Or (go (depth - 1), go (depth - 1))
      | 3 -> Ctl.Implies (go (depth - 1), go (depth - 1))
      | 4 -> Ctl.Ag (None, go (depth - 1))
      | 5 -> Ctl.Ef (None, go (depth - 1))
      | 6 -> Ctl.Af ((if Prng.bool rng then None else Some (Ctl.bounds 0 2)), go (depth - 1))
      | 7 -> Ctl.Eg ((if Prng.bool rng then None else Some (Ctl.bounds 1 3)), go (depth - 1))
      | 8 -> Ctl.Ax (go (depth - 1))
      | _ -> Ctl.Eu (None, go (depth - 1), go (depth - 1))
  in
  go 3

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

let property_tests =
  [
    qcheck ~count:200 "simplification preserves satisfaction sets" seed_arb (fun seed ->
        let m = random_auto seed in
        let f = random_formula seed in
        let env = Sat.create m in
        sat env f = sat env (Simplify.simplify f));
    qcheck ~count:200 "simplification never grows the formula" seed_arb (fun seed ->
        let f = random_formula seed in
        Ctl.size (Simplify.simplify f) <= Ctl.size f);
    qcheck ~count:200 "simplification is idempotent" seed_arb (fun seed ->
        let f = Simplify.simplify (random_formula seed) in
        Ctl.equal f (Simplify.simplify f));
  ]

let () = Alcotest.run "simplify" [ ("unit", unit_tests); ("properties", property_tests) ]
