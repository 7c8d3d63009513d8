module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Compose = Mechaml_ts.Compose
module Ctl = Mechaml_logic.Ctl
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_pairs_explored =
  Metrics.counter "mc_onthefly_pairs_total"
    ~help:"Product state pairs explored by the on-the-fly safety checker."

type trace = {
  pairs : (Automaton.state * Automaton.state) list;
  io : Mechaml_ts.Run.io list;
}

type verdict = Holds | Bad_state of trace | Deadlocked of trace

type result = { verdict : verdict; pairs_explored : int }

(* Dense representation cap: below this many potential state pairs the
   visited set is a flat bit vector indexed by pair code [l * n_r + r] — one
   bit per potential pair, so membership tests are mask-and-shift instead of
   tuple hashing.  2^22 codes is a 512 KiB transient vector at the worst
   case; parents are tracked per *explored* pair, so sparsely-explored big
   products stay cheap.

   Incremental note: unlike {!Sat}'s warm-started fixpoints, the on-the-fly
   search keeps no state across synthesis iterations — its visited set is
   intrinsically tied to the current exploration's parent links (the trace
   reconstruction walks them), so a seeded visited set would yield orphaned
   counterexample paths.  Each call is a cold start by design; the loop's
   incremental machinery amortizes the product and the global checker
   instead. *)
let dense_cap = 1 lsl 22

let check_safety_unobserved ~(left : Automaton.t) ~(right : Automaton.t)
    ?(shards = 1) ?(bad = fun _ _ -> false) () =
  if shards < 1 then invalid_arg "Onthefly.check_safety: shards must be >= 1";
  let join = Compose.join left right in
  let n_l = Automaton.num_states left and n_r = Automaton.num_states right in
  if n_l > 0 && n_r > 0 && n_l * n_r <= dense_cap then begin
    (* Dense-visited path: one bit per potential pair, parent links only for
       pairs actually reached.  The interaction along each witness edge is
       not stored: unwinding re-enumerates the parent's joint moves and
       takes the first one reaching the child — the same move that recorded
       the parent when the child was first visited, since visits happen in
       enumeration order.

       The visited set is striped into [shards] dense per-shard bitmaps by
       [code mod shards] — the same partition the sharded product uses —
       so a sharded exploration's visited bits stay shard-local.  With one
       shard the layout degenerates to the previous single flat vector;
       membership answers are identical either way. *)
    let total = n_l * n_r in
    let seen =
      Array.init shards (fun k ->
          Mechaml_util.Bitvec.create (max ((total - k + shards - 1) / shards) 1))
    in
    let seen_get code =
      Mechaml_util.Bitvec.unsafe_get seen.(code mod shards) (code / shards)
    in
    let seen_set code =
      Mechaml_util.Bitvec.unsafe_set seen.(code mod shards) (code / shards)
    in
    let parent : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let queue = Queue.create () in
    let explored = ref 0 in
    let unwind code =
      let rec chain code acc =
        let acc = code :: acc in
        match Hashtbl.find_opt parent code with None -> acc | Some p -> chain p acc
      in
      let pairs = List.map (fun c -> (c / n_r, c mod n_r)) (chain code []) in
      let rec ios = function
        | (pl, pr) :: ((cl, cr) :: _ as rest) ->
          let found = ref None in
          ignore
            (Compose.moves join pl pr (fun input output l r ->
                 if !found = None && l = cl && r = cr then found := Some (input, output)));
          (match !found with
          | Some ab -> ab :: ios rest
          | None -> assert false)
        | _ -> []
      in
      { pairs; io = ios pairs }
    in
    let verdict = ref None in
    let visit ?from code =
      if !verdict = None && not (seen_get code) then begin
        seen_set code;
        (match from with Some p -> Hashtbl.add parent code p | None -> ());
        incr explored;
        let l = code / n_r and r = code mod n_r in
        if bad l r then verdict := Some (Bad_state (unwind code)) else Queue.add code queue
      end
    in
    List.iter
      (fun q -> List.iter (fun q' -> visit ((q * n_r) + q')) right.Automaton.initial)
      left.Automaton.initial;
    while !verdict = None && not (Queue.is_empty queue) do
      let code = Queue.pop queue in
      let moves =
        Compose.moves join (code / n_r) (code mod n_r) (fun _ _ l r ->
            visit ~from:code ((l * n_r) + r))
      in
      if moves = 0 then verdict := Some (Deadlocked (unwind code))
    done;
    { verdict = Option.value !verdict ~default:Holds; pairs_explored = !explored }
  end
  else begin
    let seen : (Automaton.state * Automaton.state, unit) Hashtbl.t = Hashtbl.create 1024 in
    let parent = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let explored = ref 0 in
    let unwind pair =
      let rec go pair pairs io =
        match Hashtbl.find_opt parent pair with
        | None -> (pair :: pairs, io)
        | Some (p, ab) -> go p (pair :: pairs) (ab :: io)
      in
      let pairs, io = go pair [] [] in
      { pairs; io }
    in
    let verdict = ref None in
    let visit ?from pair =
      if !verdict = None && not (Hashtbl.mem seen pair) then begin
        Hashtbl.add seen pair ();
        incr explored;
        (match from with Some (p, ab) -> Hashtbl.add parent pair (p, ab) | None -> ());
        let l, r = pair in
        if bad l r then verdict := Some (Bad_state (unwind pair)) else Queue.add pair queue
      end
    in
    List.iter
      (fun q -> List.iter (fun q' -> visit (q, q')) right.Automaton.initial)
      left.Automaton.initial;
    while !verdict = None && not (Queue.is_empty queue) do
      let pair = Queue.pop queue in
      let moves =
        Compose.moves join (fst pair) (snd pair) (fun input output l r ->
            visit ~from:(pair, (input, output)) (l, r))
      in
      if moves = 0 then verdict := Some (Deadlocked (unwind pair))
    done;
    { verdict = Option.value !verdict ~default:Holds; pairs_explored = !explored }
  end

(* The span's interesting argument (pairs explored) is only known afterwards,
   hence [complete] rather than [with_span]. *)
let check_safety ~left ~right ?shards ?bad () =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let result = check_safety_unobserved ~left ~right ?shards ?bad () in
  Metrics.add m_pairs_explored result.pairs_explored;
  (match t0 with
  | Some start_us ->
    Trace.complete ~name:"mc.onthefly" ~start_us
      ~args:[ ("pairs_explored", Trace.Int result.pairs_explored) ]
      ()
  | None -> ());
  result

let violates_invariant ~left ~right ?shards ~invariant () =
  let body =
    match invariant with
    | Ctl.Ag (None, body) -> body
    | _ -> invalid_arg "Onthefly.violates_invariant: the invariant must be an unbounded AG"
  in
  let rec eval ls rs (f : Ctl.t) =
    match f with
    | Ctl.True -> true
    | Ctl.False -> false
    | Ctl.Prop p ->
      if Universe.mem left.Automaton.props p then Automaton.has_prop left ls p
      else if Universe.mem right.Automaton.props p then Automaton.has_prop right rs p
      else
        invalid_arg
          (Printf.sprintf "Onthefly.violates_invariant: proposition %S not in either operand" p)
    | Ctl.Not g -> not (eval ls rs g)
    | Ctl.And (a, b) -> eval ls rs a && eval ls rs b
    | Ctl.Or (a, b) -> eval ls rs a || eval ls rs b
    | Ctl.Implies (a, b) -> (not (eval ls rs a)) || eval ls rs b
    | Ctl.Deadlock | Ctl.Ax _ | Ctl.Ex _ | Ctl.Af _ | Ctl.Ef _ | Ctl.Ag _ | Ctl.Eg _
    | Ctl.Au _ | Ctl.Eu _ ->
      invalid_arg "Onthefly.violates_invariant: the AG body must be a boolean state formula"
  in
  check_safety ~left ~right ?shards ~bad:(fun ls rs -> not (eval ls rs body)) ()
