module Ctl = Mechaml_logic.Ctl
module Bitvec = Mechaml_util.Bitvec
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_checks =
  Metrics.counter "mc_checks_total" ~help:"CTL properties checked (one per formula per model)."

let m_violations =
  Metrics.counter "mc_violations_total" ~help:"Checked properties that were violated."

type outcome =
  | Holds
  | Violated of {
      formula : Ctl.t;
      witness : Mechaml_ts.Run.t;
      explanation : string;
      complete : bool;
    }

let check_one (sp : Witness.space) ~strategy f =
  Trace.with_span ~name:"mc.check"
    ~args:[ ("states", Trace.Int sp.states) ]
    (fun () ->
      Metrics.incr m_checks;
      let v = sp.sat f in
      match List.find_opt (fun q -> not (Bitvec.get v q)) sp.initial with
      | None -> Holds
      | Some start ->
        Metrics.incr m_violations;
        let psi = Ctl.nnf (Ctl.Not f) in
        let { Witness.run; explanation; complete } = Witness.witness sp ~strategy ~start psi in
        Violated { formula = f; witness = run; explanation; complete })

let check_space ?(strategy = Witness.Bfs_shortest) sp fs =
  let rec go = function
    | [] -> Holds
    | f :: rest -> ( match check_one sp ~strategy f with Holds -> go rest | v -> v)
  in
  go fs

let check_conjunction ?strategy m fs = check_space ?strategy (Sat.space m (Sat.create m)) fs

let check ?strategy m f = check_conjunction ?strategy m [ f ]

let check_with_deadlock_freedom ?strategy m f =
  check_conjunction ?strategy m [ Ctl.deadlock_free; f ]

let holds m f = match check m f with Holds -> true | Violated _ -> false

let more_witnesses ?(limit = 3) (sp : Witness.space) f =
  match Ctl.nnf (Ctl.Not f) with
  (* the negation is a plain reachability of a state predicate *)
  | Ctl.Ef (None, bad) when Witness.is_state_formula bad ->
    let bad_set = sp.sat bad in
    (* the nearest [limit] bad states in discovery order *)
    let found = ref [] in
    let parent =
      Witness.bfs sp ~from:sp.initial ~expand:(fun _ -> true) (fun d ->
          if List.length !found < limit && Bitvec.get bad_set d then found := d :: !found;
          List.length !found >= limit)
    in
    List.rev_map
      (fun target ->
        let states, io = Witness.path sp parent target in
        Mechaml_ts.Run.regular ~states ~io)
      !found
  | _ -> []
