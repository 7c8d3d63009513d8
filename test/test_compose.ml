module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Run = Mechaml_ts.Run
module Universe = Mechaml_ts.Universe
module Bitset = Mechaml_util.Bitset
open Helpers

(* A ping/pong pair: left sends ping and expects pong, right mirrors. *)
let left () =
  automaton ~name:"L" ~inputs:[ "pong" ] ~outputs:[ "ping" ]
    ~states:[ ("l0", [ "L.idle" ]) ]
    ~trans:[ ("l0", [], [ "ping" ], "l1"); ("l1", [ "pong" ], [], "l0") ]
    ~initial:[ "l0" ] ()

let right () =
  automaton ~name:"R" ~inputs:[ "ping" ] ~outputs:[ "pong" ]
    ~states:[ ("r0", [ "R.idle" ]) ]
    ~trans:[ ("r0", [ "ping" ], [], "r1"); ("r1", [], [ "pong" ], "r0") ]
    ~initial:[ "r0" ] ()

let unit_tests =
  [
    test "ping-pong product has two states and loops" (fun () ->
        let p = Compose.parallel (left ()) (right ()) in
        check_int "2 reachable states" 2 (Automaton.num_states p.Compose.auto);
        check_int "2 transitions" 2 (Automaton.num_transitions p.Compose.auto);
        check_bool "no deadlock" true
          (Mechaml_ts.Reach.blocking_states p.Compose.auto = []));
    test "labels are unioned" (fun () ->
        let p = Compose.parallel (left ()) (right ()) in
        check_bool "left label" true (Automaton.has_prop p.Compose.auto 0 "L.idle");
        check_bool "right label" true (Automaton.has_prop p.Compose.auto 0 "R.idle"));
    test "provenance maps product states to pairs" (fun () ->
        let p = Compose.parallel (left ()) (right ()) in
        check_int "left of initial" 0 (Compose.left_state p 0);
        check_int "right of initial" 0 (Compose.right_state p 0));
    test "mismatched handshake deadlocks" (fun () ->
        (* right that never answers: the pair (l1, stuck) is a deadlock *)
        let mute =
          automaton ~name:"R" ~inputs:[ "ping" ] ~outputs:[ "pong" ]
            ~trans:[ ("r0", [ "ping" ], [], "stuck") ]
            ~initial:[ "r0" ] ()
        in
        let p = Compose.parallel (left ()) mute in
        check_int "deadlocked state exists" 1
          (List.length (Mechaml_ts.Reach.blocking_states p.Compose.auto)));
    test "unconsumed output blocks the step" (fun () ->
        (* left outputs ping but right has no consuming transition: no joint
           move at all (synchronous lossless communication). *)
        let deaf =
          automaton ~name:"R" ~inputs:[ "ping" ] ~outputs:[ "pong" ]
            ~trans:[ ("r0", [], [], "r0") ]
            ~initial:[ "r0" ] ()
        in
        let p = Compose.parallel (left ()) deaf in
        check_bool "initial blocks" true (Automaton.is_blocking p.Compose.auto 0));
    test "composability is checked" (fun () ->
        match Compose.parallel (left ()) (left ()) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "shared signals must be rejected");
    test "proposition overlap is checked" (fun () ->
        let l =
          automaton ~name:"L" ~inputs:[] ~outputs:[] ~states:[ ("s", [ "p" ]) ]
            ~trans:[ ("s", [], [], "s") ] ~initial:[ "s" ] ()
        in
        let r =
          automaton ~name:"R" ~inputs:[] ~outputs:[] ~states:[ ("t", [ "p" ]) ]
            ~trans:[ ("t", [], [], "t") ] ~initial:[ "t" ] ()
        in
        match Compose.parallel l r with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "overlapping props must be rejected");
    test "orthogonal automata interleave synchronously" (fun () ->
        let a =
          automaton ~name:"A" ~inputs:[] ~outputs:[ "u" ]
            ~trans:[ ("a0", [], [ "u" ], "a1"); ("a1", [], [], "a1") ]
            ~initial:[ "a0" ] ()
        in
        let b =
          automaton ~name:"B" ~inputs:[] ~outputs:[ "v" ]
            ~trans:[ ("b0", [], [ "v" ], "b1"); ("b1", [], [], "b1") ]
            ~initial:[ "b0" ] ()
        in
        let p = Compose.parallel a b in
        (* both must step each tick: a0b0 -> a1b1 -> a1b1 *)
        check_int "2 states" 2 (Automaton.num_states p.Compose.auto);
        let t = Automaton.transitions_from p.Compose.auto 0 in
        check_int "one joint first step" 1 (List.length t);
        let tr = List.hd t in
        Alcotest.(check (list string)) "joint outputs" [ "u"; "v" ]
          (Universe.names_of_set p.Compose.auto.Automaton.outputs tr.Automaton.output));
    test "project_left/right recover component runs" (fun () ->
        let p = Compose.parallel (left ()) (right ()) in
        let tr = List.hd (Automaton.transitions_from p.Compose.auto 0) in
        let run = Run.regular ~states:[ 0; tr.Automaton.dst ] ~io:[ (tr.Automaton.input, tr.Automaton.output) ] in
        let lrun = Compose.project_left p run and rrun = Compose.project_right p run in
        check_bool "left projection is a run of L" true (Run.is_run_of p.Compose.left lrun);
        check_bool "right projection is a run of R" true (Run.is_run_of p.Compose.right rrun));
    test "colliding pair names stay two states, as in Shard.explore" (fun () ->
        (* (a, "b,c") and ("a,b", c) are both named "a,b,c" *)
        let l =
          automaton ~name:"L" ~inputs:[] ~outputs:[]
            ~trans:[ ("a", [], [], "a,b"); ("a,b", [], [], "a") ]
            ~initial:[ "a" ] ()
        in
        let r =
          automaton ~name:"R" ~inputs:[] ~outputs:[]
            ~trans:[ ("b,c", [], [], "c"); ("c", [], [], "b,c") ]
            ~initial:[ "b,c" ] ()
        in
        let p = Compose.parallel l r in
        let sp = Mechaml_ts.Shard.explore l r in
        Fun.protect
          ~finally:(fun () -> Mechaml_ts.Shard.close sp)
          (fun () ->
            let n = Mechaml_ts.Shard.num_states sp in
            check_int "2 states" 2 n;
            check_int "same state count" n (Automaton.num_states p.Compose.auto);
            Alcotest.(check (list (pair int int)))
              "same pairs"
              (List.init n (Mechaml_ts.Shard.pair sp))
              (List.init n (fun s -> (Compose.left_state p s, Compose.right_state p s)));
            check_int "the first state of a name" 0
              (Automaton.state_index p.Compose.auto "a,b,c")));
    test "parallel_many composes a chain" (fun () ->
        let m = Compose.parallel_many [ left (); right () ] in
        check_int "same as binary product" 2 (Automaton.num_states m));
    test "parallel_many rejects empty" (fun () ->
        match Compose.parallel_many [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
  ]

(* -- the join kernel against a nested-scan reference ----------------------

   The reference is Definition 3 read literally, over signal names: two
   transitions compose iff what each consumes from the other's outputs is
   exactly what the other produces on the connected signals.  Its moves come
   from a nested scan of both adjacency lists (left outer, right inner), and
   its product from a plain BFS in discovery order.  A right operand with
   escapes is read by the reference through its materialization. *)

let connected from_u set to_u =
  List.filter (Universe.mem to_u) (Universe.names_of_set from_u set)

let compatible (l : Automaton.t) (r : Automaton.t) (t : Automaton.trans) (t' : Automaton.trans) =
  List.sort compare (connected l.inputs t.input r.outputs)
  = List.sort compare (connected r.outputs t'.output l.inputs)
  && List.sort compare (connected r.inputs t'.input l.outputs)
     = List.sort compare (connected l.outputs t.output r.inputs)

let reference_moves (l : Automaton.t) (r : Automaton.t) s s' =
  List.concat_map
    (fun (t : Automaton.trans) ->
      List.filter_map
        (fun (t' : Automaton.trans) ->
          if compatible l r t t' then
            Some
              ( Bitset.union t.input (Bitset.shift (Universe.size l.inputs) t'.input),
                Bitset.union t.output (Bitset.shift (Universe.size l.outputs) t'.output),
                t.dst,
                t'.dst )
          else None)
        (Automaton.transitions_from r s'))
    (Automaton.transitions_from l s)

let kernel_moves j s s' =
  let acc = ref [] in
  let n = Compose.moves j s s' (fun a b l r -> acc := (a, b, l, r) :: !acc) in
  if n <> List.length !acc then Alcotest.failf "move count %d disagrees with the moves" n;
  List.rev !acc

(* Reachable pairs in discovery order, checking the kernel's moves from each
   against the reference's; [None] when they first disagree. *)
let explore (l : Automaton.t) (r : Automaton.t) =
  let j = Compose.join l r in
  let r = Mechaml_core.Chaos.materialize r in
  let ids = Hashtbl.create 64 and order = ref [] and queue = Queue.create () in
  let intern pair =
    match Hashtbl.find_opt ids pair with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids pair id;
      order := pair :: !order;
      Queue.add pair queue;
      id
  in
  let initial =
    List.concat_map (fun q -> List.map (fun q' -> intern (q, q')) r.initial) l.initial
  in
  let rows = ref [] and agree = ref true in
  while !agree && not (Queue.is_empty queue) do
    let s, s' = Queue.pop queue in
    let expected = reference_moves l r s s' in
    if kernel_moves j s s' <> expected then agree := false;
    rows :=
      List.map
        (fun (input, output, d, d') -> { Automaton.input; output; dst = intern (d, d') })
        expected
      :: !rows
  done;
  if !agree then Some (Array.of_list (List.rev !order), initial, Array.of_list (List.rev !rows))
  else None

let reference_product (l : Automaton.t) (r : Automaton.t) (pairs, initial, trans) =
  Automaton.of_packed
    ~name:(l.name ^ "||" ^ r.name)
    ~inputs:(Universe.union l.inputs r.inputs)
    ~outputs:(Universe.union l.outputs r.outputs)
    ~props:(Universe.union l.props r.props)
    ~state_names:
      (Array.map (fun (s, s') -> Automaton.state_name l s ^ "," ^ Automaton.state_name r s') pairs)
    ~labels:
      (Array.map
         (fun (s, s') ->
           Bitset.union (Automaton.label l s)
             (Bitset.shift (Universe.size l.props) (Automaton.label r s')))
         pairs)
    ~trans ~initial ()

(* Kernel moves equal the reference's from every reachable pair; where the
   combined universes fit a word, [parallel] also equals the reference
   product in digest and provenance. *)
let agrees ~shape (l : Automaton.t) (r : Automaton.t) =
  match explore l r with
  | None -> QCheck.Test.fail_reportf "%s: joint moves differ from the nested scan" shape
  | Some ((pairs, _, _) as reachable) ->
    let fits =
      Universe.size l.inputs + Universe.size r.inputs <= Bitset.max_width
      && Universe.size l.outputs + Universe.size r.outputs <= Bitset.max_width
    in
    (if fits then
       let p = Compose.parallel l r in
       if p.Compose.pairs <> pairs then
         QCheck.Test.fail_reportf "%s: product pairs differ" shape;
       if Automaton.digest p.Compose.auto <> Automaton.digest (reference_product l r reachable)
       then QCheck.Test.fail_reportf "%s: product digest differs" shape);
    true

let names prefix n = List.init n (Printf.sprintf "%s%d" prefix)

let kernel_prop seed =
  let rng = Prng.create ~seed in
  let states () = 1 + Prng.int rng 6 in
  (* closed: every output of one side is an input of the other *)
  let closed_l =
    random_automaton rng ~name:"L" ~inputs:(names "a" 3) ~outputs:(names "b" 2) ~states:(states ()) ()
  in
  let closed_r =
    random_automaton rng ~name:"R" ~inputs:(names "b" 2) ~outputs:(names "a" 3) ~fanout:16
      ~states:(states ()) ()
  in
  (* open: unconnected signals on both sides, so right labels that differ
     only there share a footprint *)
  let open_l =
    random_automaton rng ~name:"L" ~inputs:(names "a" 2 @ [ "e" ]) ~outputs:(names "b" 2 @ [ "f" ])
      ~states:(states ()) ()
  in
  let open_r =
    random_automaton rng ~name:"R" ~inputs:(names "b" 2 @ [ "g" ]) ~outputs:(names "a" 2 @ [ "h" ])
      ~fanout:16 ~states:(states ()) ()
  in
  (* wide: 40 + 24 outputs; the right side's labels use its first 20, so
     every combined label still fits a word *)
  let wide_l =
    random_automaton rng ~name:"L" ~inputs:(names "a" 2) ~outputs:(names "b" 2 @ names "p" 38)
      ~states:(states ()) ()
  in
  let wide_r =
    random_automaton rng ~name:"R" ~inputs:(names "b" 2) ~outputs:(names "a" 2 @ names "q" 22)
      ~out_bits:20 ~states:(states ()) ()
  in
  agrees ~shape:"closed" closed_l closed_r
  && agrees ~shape:"open" open_l open_r
  && agrees ~shape:"wide" wide_l wide_r
  && agrees ~shape:"closed, escaped" closed_l (with_random_escapes rng closed_r)
  && agrees ~shape:"open, escaped" open_l (with_random_escapes rng open_r)

let property_tests =
  [
    qcheck ~count:300 "kernel matches the nested-scan reference"
      QCheck.(int_bound 1_000_000)
      kernel_prop;
  ]

let () = Alcotest.run "compose" [ ("unit", unit_tests); ("join", property_tests) ]
