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

(* The bench's wide torus, test-sized: a four-dimensional torus of side [n]
   (one output signal per axis) times an [h]-cycle that axis [a]'s signal
   advances by [steps.(a)].  With [n] and every step coprime to [h], all
   [n^4 * h] pairs are reachable and the BFS levels are wide: the shape where
   a level-synchronized round has real work per shard.  n = 5, h = 3 gives
   1875 states on 22 levels of up to 195 states. *)
let torus_pair ~n ~h ~steps =
  let module B = Automaton.Builder in
  let axes = [ "x"; "y"; "z"; "w" ] in
  let name c = String.concat "_" (List.map string_of_int (Array.to_list c)) in
  let left =
    let b = B.create ~name:"torus" ~inputs:[] ~outputs:axes ~props:[ "origin" ] () in
    let c = Array.make 4 0 in
    for idx = 0 to (n * n * n * n) - 1 do
      let r = ref idx in
      for a = 0 to 3 do
        c.(a) <- !r mod n;
        r := !r / n
      done;
      ignore (B.add_state b ~props:(if idx = 0 then [ "origin" ] else []) (name c));
      List.iteri
        (fun a s ->
          let next = Array.copy c in
          next.(a) <- (c.(a) + 1) mod n;
          B.add_trans b ~src:(name c) ~outputs:[ s ] ~dst:(name next) ())
        axes
    done;
    B.set_initial b [ name (Array.make 4 0) ];
    B.build b
  in
  let right =
    let b = B.create ~name:"cycle" ~inputs:axes ~outputs:[] ~props:[ "home" ] () in
    let st k = Printf.sprintf "c%d" k in
    for k = 0 to h - 1 do
      ignore (B.add_state b ~props:(if k = 0 then [ "home" ] else []) (st k));
      List.iteri
        (fun a s -> B.add_trans b ~src:(st k) ~inputs:[ s ] ~dst:(st ((k + steps.(a)) mod h)) ())
        axes
    done;
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

(* Random automata for property tests, built straight from bitsets.  A row
   draws its labels from a small pool, so equal labels (one interaction id)
   recur within a row and across rows. *)
module Prng = Mechaml_util.Prng

let random_subset rng width =
  let s = ref 0 in
  for i = 0 to width - 1 do
    if Prng.int rng 3 = 0 then s := !s lor (1 lsl i)
  done;
  Mechaml_util.Bitset.of_int_unsafe !s

(* [out_bits] bounds the output signals a label uses (default: all). *)
let random_label_pool rng ~in_width ~out_bits =
  Array.init (1 + Prng.int rng 8) (fun _ -> (random_subset rng in_width, random_subset rng out_bits))

let random_row rng pool ~fanout ~states =
  List.init (Prng.int rng (fanout + 1)) (fun _ ->
      let input, output = pool.(Prng.int rng (Array.length pool)) in
      { Automaton.input; output; dst = Prng.int rng states })

(* [states] states named [name ^ index], rows of up to [fanout]
   transitions, one to three initial states, and a proposition [name ^ ".p"]
   on the even states. *)
let random_automaton rng ~name ~inputs ~outputs ?(out_bits = List.length outputs) ?(fanout = 8)
    ~states () =
  let pool = random_label_pool rng ~in_width:(List.length inputs) ~out_bits in
  let initial =
    List.sort_uniq compare (List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng states))
  in
  Automaton.of_packed ~name ~inputs:(Mechaml_ts.Universe.of_list inputs)
    ~outputs:(Mechaml_ts.Universe.of_list outputs)
    ~props:(Mechaml_ts.Universe.of_list [ name ^ ".p" ])
    ~state_names:(Array.init states (Printf.sprintf "%s%d" name))
    ~labels:
      (Array.init states (fun i ->
           if i mod 2 = 0 then Mechaml_util.Bitset.singleton 0 else Mechaml_util.Bitset.empty))
    ~trans:(Array.init states (fun _ -> random_row rng pool ~fanout ~states))
    ~initial ()

(* [m] with an escape on each state with probability 1/2: a random subset
   of the input patterns excluded, one or two random destinations. *)
let with_random_escapes rng (m : Automaton.t) =
  let n = Automaton.num_states m in
  let n_in = 1 lsl Mechaml_ts.Universe.size m.Automaton.inputs in
  Automaton.of_packed ~assume_unique_names:true ~name:m.Automaton.name ~inputs:m.Automaton.inputs
    ~outputs:m.Automaton.outputs ~props:m.Automaton.props ~state_names:m.Automaton.state_names
    ~labels:m.Automaton.labels ~trans:m.Automaton.trans
    ~escapes:
      (Array.init n (fun _ ->
           if Prng.bool rng then None
           else
             Some
               {
                 Automaton.excluded =
                   Array.of_list
                     (List.filter (fun _ -> Prng.int rng 3 = 0) (List.init n_in Fun.id));
                 dsts = List.init (1 + Prng.int rng 2) (fun _ -> Prng.int rng n);
               }))
    ~initial:m.Automaton.initial ()

(* A learning chain the way the loop grows a model: append-only transitions
   and refusals over inputs [a], [b] and outputs [x], [y] among five
   states, one random fact per step, skipping facts that would contradict
   recorded knowledge. *)
let model_start () =
  Mechaml_core.Incomplete.create ~name:"q" ~inputs:[ "a"; "b" ] ~outputs:[ "x"; "y" ]
    ~initial_state:"s0"

let grow_model rng m =
  let module I = Mechaml_core.Incomplete in
  let pool = [| "s0"; "s1"; "s2"; "s3"; "s4" |] in
  let subset l = List.filter (fun _ -> Prng.bool rng) l in
  try
    let src = pool.(Prng.int rng (Array.length pool)) in
    let inputs = subset [ "a"; "b" ] in
    if Prng.bool rng then
      let dst = pool.(Prng.int rng (Array.length pool)) in
      I.add_transition m ~src (I.interaction ~inputs ~outputs:(subset [ "x"; "y" ])) ~dst
    else I.add_refusal m ~state:src ~inputs
  with Invalid_argument _ -> m

(* The enumerating chaotic closure: Definition 9 with the determinism
   sharpening of [chaos.mli], every chaotic row written out over
   ℘(I) × ℘(O), inputs outer and outputs inner ascending, [s_∀] before
   [s_δ].  The oracle for [Chaos.materialize]. *)
let reference_closure ?(label_of = fun _ -> []) ?(extra_props = [])
    (m : Mechaml_core.Incomplete.t) =
  let module Chaos = Mechaml_core.Chaos in
  let module U = Mechaml_ts.Universe in
  let module B = Mechaml_util.Bitset in
  let inputs = U.of_list m.input_signals and outputs = U.of_list m.output_signals in
  let states = Array.of_list m.states in
  let k_of s =
    let rec go k = if states.(k) = s then k else go (k + 1) in
    go 0
  in
  let n = (2 * Array.length states) + 2 in
  let all = n - 2 in
  let props =
    let declared = Chaos.chaos_prop :: List.filter (( <> ) Chaos.chaos_prop) extra_props in
    U.of_list
      (Array.fold_left
         (fun acc s -> acc @ List.filter (fun p -> not (List.mem p acc)) (label_of s))
         declared states)
  in
  let known k =
    List.concat_map
      (fun (src, (i : Mechaml_core.Incomplete.interaction), dst) ->
        if k_of src <> k then []
        else
          let input = U.set_of_names inputs i.in_signals
          and output = U.set_of_names outputs i.out_signals in
          [ { Automaton.input; output; dst = 2 * k_of dst };
            { Automaton.input; output; dst = (2 * k_of dst) + 1 } ])
      m.trans
  in
  let answered k a =
    List.exists
      (fun (src, (i : Mechaml_core.Incomplete.interaction), _) ->
        k_of src = k && B.to_int (U.set_of_names inputs i.in_signals) = a)
      m.trans
    || List.exists
         (fun (s, ins) -> k_of s = k && B.to_int (U.set_of_names inputs ins) = a)
         m.refusals
  in
  let chaotic skip =
    List.concat_map
      (fun a ->
        if skip a then []
        else
          List.concat_map
            (fun o ->
              let input = B.of_int_unsafe a and output = B.of_int_unsafe o in
              [
                { Automaton.input; output; dst = all };
                { Automaton.input; output; dst = all + 1 };
              ])
            (List.init (1 lsl U.size outputs) Fun.id))
      (List.init (1 lsl U.size inputs) Fun.id)
  in
  let chaos_label = U.set_of_names props [ Chaos.chaos_prop ] in
  let core s = s < all in
  Automaton.of_packed ~assume_unique_names:true ~name:("chaos(" ^ m.name ^ ")") ~inputs ~outputs
    ~props
    ~state_names:
      (Array.init n (fun s ->
           if s = all then Chaos.s_all
           else if s = all + 1 then Chaos.s_delta
           else if s land 1 = 0 then states.(s / 2)
           else states.(s / 2) ^ Chaos.closed_suffix))
    ~labels:
      (Array.init n (fun s ->
           if core s then U.set_of_names props (label_of states.(s / 2)) else chaos_label))
    ~trans:
      (Array.init n (fun s ->
           if s = all then chaotic (fun _ -> false)
           else if s = all + 1 then []
           else if s land 1 = 0 then known (s / 2) @ chaotic (answered (s / 2))
           else known (s / 2)))
    ~initial:(List.concat_map (fun q -> [ 2 * k_of q; (2 * k_of q) + 1 ]) m.initial)
    ()
