module Bitset = Mechaml_util.Bitset

type label_match = Exact | Wildcard of string

let check_same_signals (m : Automaton.t) (m' : Automaton.t) =
  let same u u' =
    List.sort compare (Universe.to_list u) = List.sort compare (Universe.to_list u')
  in
  if not (same m.inputs m'.inputs && same m.outputs m'.outputs) then
    invalid_arg "Simulation: automata have different signal alphabets"

let label_matcher label_match (m : Automaton.t) (m' : Automaton.t) =
  let names_of side s =
    match side with
    | `C -> Universe.names_of_set m.Automaton.props (Automaton.label m s)
    | `A -> Universe.names_of_set m'.Automaton.props (Automaton.label m' s)
  in
  let wildcard_prop =
    match label_match with Exact -> None | Wildcard p -> Some p
  in
  fun s s' ->
    match wildcard_prop with
    | Some p when Automaton.has_prop m' s' p -> true
    | _ -> List.sort compare (names_of `C s) = List.sort compare (names_of `A s')

(* Interactions are compared by signal names, so re-embed the concrete side's
   bitsets into the abstract universes once up front. *)
let embedder (m : Automaton.t) (m' : Automaton.t) =
  fun (t : Automaton.trans) ->
    ( Universe.embed m.Automaton.inputs ~into:m'.Automaton.inputs t.input,
      Universe.embed m.Automaton.outputs ~into:m'.Automaton.outputs t.output )

let simulates ?(label_match = Exact) ~(concrete : Automaton.t) ~(abstract : Automaton.t) () =
  check_same_signals concrete abstract;
  Automaton.require_explicit "Simulation.simulates" concrete;
  Automaton.require_explicit "Simulation.simulates" abstract;
  let matches = label_matcher label_match concrete abstract in
  let embed = embedder concrete abstract in
  let n = Automaton.num_states concrete and n' = Automaton.num_states abstract in
  (* Greatest fixpoint: start from label-compatible pairs, remove pairs whose
     transition obligation fails, iterate to stability. *)
  let rel = Array.make_matrix n n' false in
  for s = 0 to n - 1 do
    for s' = 0 to n' - 1 do
      rel.(s).(s') <- matches s s'
    done
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      for s' = 0 to n' - 1 do
        if rel.(s).(s') then begin
          let ok =
            List.for_all
              (fun (t : Automaton.trans) ->
                let a, b = embed t in
                List.exists
                  (fun (t' : Automaton.trans) ->
                    Bitset.equal t'.input a && Bitset.equal t'.output b && rel.(t.dst).(t'.dst))
                  (Automaton.transitions_from abstract s'))
              (Automaton.transitions_from concrete s)
          in
          if not ok then begin
            rel.(s).(s') <- false;
            changed := true
          end
        end
      done
    done
  done;
  List.for_all
    (fun q -> List.exists (fun q' -> rel.(q).(q')) abstract.Automaton.initial)
    concrete.Automaton.initial
