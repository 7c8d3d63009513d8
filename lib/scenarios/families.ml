module Automaton = Mechaml_ts.Automaton
module Prng = Mechaml_util.Prng
module Blackbox = Mechaml_legacy.Blackbox

let lock_secret ~n =
  let rng = Prng.create ~seed:(0x10c0 + n) in
  List.init n (fun _ -> if Prng.bool rng then "a" else "b")

let other = function "a" -> "b" | _ -> "a"

let locked i = Printf.sprintf "locked_%d" i

let spare_input_names k = List.init k (Printf.sprintf "sp_i%d")

let spare_output_names k = List.init k (Printf.sprintf "sp_o%d")

let lock_legacy_gen ~n ~extra_inputs ~extra_outputs =
  if n < 1 then invalid_arg "Families.lock_legacy: n must be positive";
  let secret = lock_secret ~n in
  let b =
    Automaton.Builder.create ~name:(Printf.sprintf "lock%d" n)
      ~inputs:([ "a"; "b" ] @ extra_inputs)
      ~outputs:("open" :: extra_outputs) ()
  in
  List.iteri
    (fun i sym ->
      let src = locked i in
      (* Correct symbol advances (the last one opens); wrong symbol resets;
         silence idles. *)
      if i = n - 1 then
        Automaton.Builder.add_trans b ~src ~inputs:[ sym ] ~outputs:[ "open" ] ~dst:"unlocked" ()
      else Automaton.Builder.add_trans b ~src ~inputs:[ sym ] ~dst:(locked (i + 1)) ();
      Automaton.Builder.add_trans b ~src ~inputs:[ other sym ] ~dst:(locked 0) ();
      Automaton.Builder.add_trans b ~src ~dst:src ())
    secret;
  Automaton.Builder.add_trans b ~src:"unlocked" ~inputs:[ "a" ] ~dst:(locked 0) ();
  Automaton.Builder.add_trans b ~src:"unlocked" ~inputs:[ "b" ] ~dst:(locked 0) ();
  Automaton.Builder.add_trans b ~src:"unlocked" ~dst:(locked 0) ();
  Automaton.Builder.set_initial b [ locked 0 ];
  Automaton.Builder.build b

let lock_legacy ~n = lock_legacy_gen ~n ~extra_inputs:[] ~extra_outputs:[]

let lock_box ~n = Blackbox.of_automaton ~port:"lockPort" (lock_legacy ~n)

let wide_lock_box ~n ~spares:(ki, ko) =
  Blackbox.of_automaton ~port:"lockPort"
    (lock_legacy_gen ~n ~extra_inputs:(spare_input_names ki)
       ~extra_outputs:(spare_output_names ko))

let lock_context_gen ~n ~depth ~extra_inputs ~extra_outputs =
  if depth < 0 || depth >= n then
    invalid_arg "Families.lock_context: depth must satisfy 0 <= depth < n";
  let secret = lock_secret ~n in
  let b =
    Automaton.Builder.create
      ~name:(Printf.sprintf "lockContext%d" depth)
      ~inputs:("open" :: extra_outputs)
      ~outputs:([ "a"; "b" ] @ extra_inputs) ()
  in
  let state i = Printf.sprintf "c%d" i in
  List.iteri
    (fun i sym ->
      if i < depth then
        Automaton.Builder.add_trans b ~src:(state i) ~outputs:[ sym ] ~dst:(state (i + 1)) ())
    secret;
  (* Deliberate reset: play a wrong symbol, return to the start. *)
  Automaton.Builder.add_trans b ~src:(state depth)
    ~outputs:[ other (List.nth secret depth) ]
    ~dst:(state 0) ();
  Automaton.Builder.set_initial b [ state 0 ];
  Automaton.Builder.build b

let lock_context ~n ~depth = lock_context_gen ~n ~depth ~extra_inputs:[] ~extra_outputs:[]

(* Same protocol as the plain lock, but the interface declares [ki] unused
   input and [ko] unused output signals.  Each spare signal doubles the
   ℘(I) × ℘(O) fan-out of every open copy's escape row (kept symbolic by
   the closure) while the learned protocol — and with it the iteration
   count — stays that of the plain lock: big closures, small per-iteration
   knowledge deltas. *)
let wide_lock_context ~n ~depth ~spares:(ki, ko) =
  lock_context_gen ~n ~depth ~extra_inputs:(spare_input_names ki)
    ~extra_outputs:(spare_output_names ko)

let lock_property = Mechaml_logic.Parser.parse_exn "AG (not lock.unlocked)"

let lock_label_of s = if s = "unlocked" then [ "lock.unlocked" ] else []

let lock_alphabet = [ []; [ "a" ]; [ "b" ] ]

let random_machine ~seed ~states ~inputs ~outputs =
  if states < 1 then invalid_arg "Families.random_machine: states must be positive";
  let rng = Prng.create ~seed in
  let b =
    Automaton.Builder.create ~name:(Printf.sprintf "rand%d_%d" states seed) ~inputs ~outputs ()
  in
  let name i = Printf.sprintf "s%d" i in
  let input_sets = [] :: List.map (fun i -> [ i ]) inputs in
  for s = 0 to states - 1 do
    List.iter
      (fun a ->
        let out = if Prng.bool rng then [] else [ Prng.pick rng outputs ] in
        let dst = name (Prng.int rng states) in
        Automaton.Builder.add_trans b ~src:(name s) ~inputs:a ~outputs:out ~dst ())
      input_sets
  done;
  Automaton.Builder.set_initial b [ name 0 ];
  Automaton.Builder.build b

let random_context ~seed ~states ~legacy_inputs ~legacy_outputs =
  if states < 1 then invalid_arg "Families.random_context: states must be positive";
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  let b =
    Automaton.Builder.create
      ~name:(Printf.sprintf "ctx%d_%d" states seed)
      ~inputs:legacy_outputs ~outputs:legacy_inputs ()
  in
  let name i = Printf.sprintf "c%d" i in
  for s = 0 to states - 1 do
    (* Offer one interaction towards the legacy component... *)
    let offered = if Prng.bool rng then [] else [ Prng.pick rng legacy_inputs ] in
    (* ...and be prepared for a random selection of its possible replies. *)
    List.iter
      (fun reply ->
        if reply = [] || Prng.bool rng then
          Automaton.Builder.add_trans b ~src:(name s) ~inputs:reply ~outputs:offered
            ~dst:(name (Prng.int rng states)) ())
      ([] :: List.map (fun o -> [ o ]) legacy_outputs)
  done;
  Automaton.Builder.set_initial b [ name 0 ];
  Automaton.Builder.build b
