(* Shared helpers for the test suite: compact automaton construction and
   alcotest/qcheck glue. *)

module Automaton = Mechaml_ts.Automaton

(* Build an automaton from a compact description:
   states: (name, props) list; trans: (src, inputs, outputs, dst) list. *)
let automaton ?(name = "m") ~inputs ~outputs ?(states = []) ~trans ~initial () =
  let b = Automaton.Builder.create ~name ~inputs ~outputs () in
  List.iter (fun (s, props) -> ignore (Automaton.Builder.add_state b ~props s)) states;
  List.iter
    (fun (src, ins, outs, dst) ->
      Automaton.Builder.add_trans b ~src ~inputs:ins ~outputs:outs ~dst ())
    trans;
  Automaton.Builder.set_initial b initial;
  Automaton.Builder.build b

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

module Ctl = Mechaml_logic.Ctl

(* The bench's coprime mesh, test-sized.  Left counts q-steps modulo [w],
   right modulo [h], and an r-step resets both, so for coprime sides all
   w*h pairs are reachable and every one of them sits on a cycle.  Every
   5th left state is labelled [tick] and right state r0 [home]; a signal
   [s] from the last pair leads into a dead end, giving one reachable
   blocking state.  Every fixpoint therefore starts from a non-trivial set.
   23x16 gives 369 states. *)
let mesh_pair ~w ~h =
  let module B = Automaton.Builder in
  let left =
    let b = B.create ~name:"meshL" ~inputs:[] ~outputs:[ "q"; "r"; "s" ] ~props:[ "tick" ] () in
    let st i = Printf.sprintf "l%d" i in
    for i = 0 to w - 1 do
      ignore (B.add_state b ~props:(if i mod 5 = 0 then [ "tick" ] else []) (st i));
      B.add_trans b ~src:(st i) ~outputs:[ "q" ] ~dst:(st ((i + 1) mod w)) ();
      B.add_trans b ~src:(st i) ~outputs:[ "r" ] ~dst:(st 0) ()
    done;
    B.add_trans b ~src:(st (w - 1)) ~outputs:[ "s" ] ~dst:"dead" ();
    B.set_initial b [ st 0 ];
    B.build b
  in
  let right =
    let b = B.create ~name:"meshR" ~inputs:[ "q"; "r"; "s" ] ~outputs:[] ~props:[ "home" ] () in
    let st j = Printf.sprintf "r%d" j in
    for j = 0 to h - 1 do
      ignore (B.add_state b ~props:(if j = 0 then [ "home" ] else []) (st j));
      B.add_trans b ~src:(st j) ~inputs:[ "q" ] ~dst:(st ((j + 1) mod h)) ();
      B.add_trans b ~src:(st j) ~inputs:[ "r" ] ~dst:(st 0) ()
    done;
    B.add_trans b ~src:(st (h - 1)) ~inputs:[ "s" ] ~dst:(st 0) ();
    B.set_initial b [ st 0 ];
    B.build b
  in
  (left, right)

(* Formulas over no propositions — deadlock and path structure only — so
   they apply to any product; the mix covers every unbounded fixpoint and
   every bounded dynamic program. *)
let structural_formulas =
  let d = Ctl.Deadlock in
  let nd = Ctl.Not d in
  let b lo hi = Some { Ctl.lo; hi } in
  [
    Ctl.deadlock_free;
    Ctl.Ef (None, d);
    Ctl.Af (None, d);
    Ctl.Ag (None, nd);
    Ctl.Eg (None, nd);
    Ctl.Au (None, nd, d);
    Ctl.Eu (None, nd, d);
    Ctl.Ax nd;
    Ctl.Ex d;
    Ctl.Ef (b 1 4, d);
    Ctl.Ag (b 0 5, nd);
    Ctl.Au (b 0 3, nd, d);
    Ctl.Af (b 2 6, d);
    Ctl.Eg (b 1 5, nd);
    Ctl.Eu (b 0 4, nd, d);
    Ctl.Implies (Ctl.Ex nd, Ctl.Ef (None, d));
  ]

(* The structural mix plus formulas over {!mesh_pair}'s labels. *)
let mesh_formulas =
  let tick = Ctl.Prop "tick" and home = Ctl.Prop "home" in
  let b lo hi = Some { Ctl.lo; hi } in
  structural_formulas
  @ [
      Ctl.Ef (None, Ctl.And (tick, home));
      Ctl.Ag (None, Ctl.Implies (tick, Ctl.Af (None, home)));
      Ctl.Eg (None, Ctl.Not tick);
      Ctl.Au (None, Ctl.Not tick, home);
      Ctl.Af (None, tick);
      Ctl.Eu (None, Ctl.Not home, Ctl.And (tick, Ctl.Ex home));
      Ctl.Ax tick;
      Ctl.Ex home;
      Ctl.Af (b 2 9, tick);
      Ctl.Ef (b 3 12, Ctl.And (tick, home));
      Ctl.Ag (b 1 4, Ctl.Not home);
      Ctl.Eg (b 0 7, Ctl.Not home);
      Ctl.Au (b 0 6, Ctl.Not home, tick);
      Ctl.Eu (b 1 10, Ctl.Not tick, home);
      Ctl.Or (Ctl.Deadlock, Ctl.Eg (None, Ctl.Or (tick, home)));
    ]
