module Bitset = Mechaml_util.Bitset

type failure_reason =
  | Label_mismatch
  | Missing_trace of Run.io
  | Unmatched_refusal of Run.io

type result = Refines | Fails of { reason : failure_reason; witness : Run.t }

module Key = struct
  type t = int * int list (* concrete state, sorted abstract state set *)
end

let accepted_pairs (m : Automaton.t) embed s =
  List.map
    (fun (t : Automaton.trans) ->
      let a, b = embed t in
      (Bitset.to_int a, Bitset.to_int b))
    (Automaton.transitions_from m s)
  |> List.sort_uniq compare

let check ?(label_match = Simulation.Exact) ~(concrete : Automaton.t)
    ~(abstract : Automaton.t) () =
  (let same u u' =
     List.sort compare (Universe.to_list u) = List.sort compare (Universe.to_list u')
   in
   if not (same concrete.inputs abstract.inputs && same concrete.outputs abstract.outputs)
   then invalid_arg "Refinement.check: automata have different signal alphabets");
  Automaton.require_explicit "Refinement.check" concrete;
  Automaton.require_explicit "Refinement.check" abstract;
  let matches = Simulation.label_matcher label_match concrete abstract in
  let embed_c (t : Automaton.trans) =
    ( Universe.embed concrete.Automaton.inputs ~into:abstract.Automaton.inputs t.input,
      Universe.embed concrete.Automaton.outputs ~into:abstract.Automaton.outputs t.output )
  in
  let embed_a (t : Automaton.trans) = (t.Automaton.input, t.Automaton.output) in
  let concrete_accepted = Array.init (Automaton.num_states concrete) (fun _ -> None) in
  let abstract_accepted = Array.init (Automaton.num_states abstract) (fun _ -> None) in
  let accepted arr m embed s =
    match arr.(s) with
    | Some l -> l
    | None ->
      let l = accepted_pairs m embed s in
      arr.(s) <- Some l;
      l
  in
  let successors_of_set q a b =
    List.concat_map
      (fun s' ->
        List.filter_map
          (fun (t : Automaton.trans) ->
            if Bitset.equal t.input a && Bitset.equal t.output b then Some t.dst else None)
          (Automaton.transitions_from abstract s'))
      q
    |> List.sort_uniq compare
  in
  (* Parent links for witness reconstruction: node -> (parent, io taken). *)
  let parents : (Key.t, (Key.t * Run.io) option) Hashtbl.t = Hashtbl.create 256 in
  let queue : Key.t Queue.t = Queue.create () in
  let witness_to (s, q) extra_io ~deadlock =
    let rec unwind key states io =
      let s, _ = key in
      match Hashtbl.find parents key with
      | None -> (s :: states, io)
      | Some (parent, ab) -> unwind parent (s :: states) (ab :: io)
    in
    let states, io = unwind (s, q) [] [] in
    let io = io @ Option.to_list extra_io in
    if deadlock then Run.deadlocking ~states ~io else Run.regular ~states ~io
  in
  let failure = ref None in
  let fail key reason extra_io ~deadlock =
    if !failure = None then
      failure := Some (Fails { reason; witness = witness_to key extra_io ~deadlock })
  in
  let intersect_sorted a b = List.filter (fun x -> List.mem x b) a in
  let visit_node ((s, q) as key) =
    (* Condition 1, label part. *)
    if not (List.exists (fun s' -> matches s s') q) then
      fail key Label_mismatch None ~deadlock:false
    else begin
      (* Condition 2: refusals of the concrete state must be refusable by some
         same-trace abstract state.  Fails iff some interaction is accepted by
         every abstract state in [q] but refused by [s]. *)
      let acc_c = accepted concrete_accepted concrete embed_c s in
      let common =
        match q with
        | [] -> []
        | s0 :: rest ->
          List.fold_left
            (fun acc s' -> intersect_sorted acc (accepted abstract_accepted abstract embed_a s'))
            (accepted abstract_accepted abstract embed_a s0)
            rest
      in
      (match List.find_opt (fun ab -> not (List.mem ab acc_c)) common with
      | Some (a, b) ->
        (* Convert the interaction back into the concrete automaton's signal
           indexing so the witness prints with the right names. *)
        let io =
          ( Universe.embed abstract.Automaton.inputs ~into:concrete.Automaton.inputs
              (Bitset.of_int_unsafe a),
            Universe.embed abstract.Automaton.outputs ~into:concrete.Automaton.outputs
              (Bitset.of_int_unsafe b) )
        in
        fail key (Unmatched_refusal io) (Some io) ~deadlock:true
      | None -> ());
      (* Condition 1, trace part: explore successors. *)
      List.iter
        (fun (t : Automaton.trans) ->
          if !failure = None then begin
            let a, b = embed_c t in
            let io_concrete = (t.input, t.output) in
            let q1 = successors_of_set q a b in
            let child = (t.dst, q1) in
            if q1 = [] then begin
              (* Record the failing step so the witness includes it. *)
              if not (Hashtbl.mem parents child) then
                Hashtbl.add parents child (Some (key, io_concrete));
              fail child (Missing_trace io_concrete) None ~deadlock:false
            end
            else if not (Hashtbl.mem parents child) then begin
              Hashtbl.add parents child (Some (key, io_concrete));
              Queue.add child queue
            end
          end)
        (Automaton.transitions_from concrete s)
    end
  in
  let q0 = List.sort_uniq compare abstract.Automaton.initial in
  List.iter
    (fun s ->
      let key = (s, q0) in
      if not (Hashtbl.mem parents key) then begin
        Hashtbl.add parents key None;
        Queue.add key queue
      end)
    concrete.Automaton.initial;
  while !failure = None && not (Queue.is_empty queue) do
    visit_node (Queue.pop queue)
  done;
  match !failure with Some f -> f | None -> Refines

let refines ?label_match ~concrete ~abstract () =
  match check ?label_match ~concrete ~abstract () with Refines -> true | Fails _ -> false
