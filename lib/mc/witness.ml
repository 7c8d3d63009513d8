module Run = Mechaml_ts.Run
module Ctl = Mechaml_logic.Ctl
module Bitvec = Mechaml_util.Bitvec

type strategy = Bfs_shortest | Dfs_first

type t = { run : Run.t; explanation : string; complete : bool }

type space = {
  states : int;
  initial : int list;
  succ : int array -> int array array;
  io : int -> int -> Run.io;
  sat : Ctl.t -> Bitvec.t;
  name : int -> string;
}

let successors (sp : space) s = (sp.succ [| s |]).(0)

(* A path fragment: states s₀ … sₙ with the interactions between them. *)
type frag = { states : int list; io : Run.io list }

let single s = { states = [ s ]; io = [] }

let last_state f = List.nth f.states (List.length f.states - 1)

let join a b =
  match b.states with
  | [] -> a
  | first :: rest ->
    assert (last_state a = first);
    { states = a.states @ rest; io = a.io @ b.io }

(* The [k]-th transition out of [s], labelled *)
let step (sp : space) s k t = { states = [ s; t ]; io = [ sp.io s k ] }

(* A walk being extended one transition at a time, newest first, so each
   step is constant time; [close] builds its fragment once. *)
type walk = { rev_states : int list; rev_io : Run.io list }

let walk_from s = { rev_states = [ s ]; rev_io = [] }

let extend (sp : space) w s k t =
  { rev_states = t :: w.rev_states; rev_io = sp.io s k :: w.rev_io }

let close w = { states = List.rev w.rev_states; io = List.rev w.rev_io }

let bfs (sp : space) ~from ~expand stop =
  let parent = Array.make sp.states None and seen = Array.make sp.states false in
  let stopped = ref false and next = Queue.create () in
  let discover p d =
    seen.(d) <- true;
    parent.(d) <- p;
    if stop d then stopped := true else if expand d then Queue.add d next
  in
  List.iter (fun q -> if not (!stopped || seen.(q)) then discover None q) from;
  while not (!stopped || Queue.is_empty next) do
    let level = Array.of_seq (Queue.to_seq next) in
    Queue.clear next;
    Array.iter2
      (fun s succ ->
        Array.iteri (fun k d -> if not (!stopped || seen.(d)) then discover (Some (s, k)) d) succ)
      level (sp.succ level)
  done;
  parent

let path (sp : space) parent s =
  let rec unwind s states io =
    match parent.(s) with
    | None -> (s :: states, io)
    | Some (p, k) -> unwind p (s :: states) (sp.io p k :: io)
  in
  unwind s [] []

(* Search a path from [from] to a state satisfying [target]; intermediate
   states (excluding the target) must satisfy [via].  Parents record the
   transition's position, so only the returned path's labels are asked
   for. *)
let search (sp : space) strategy ~from ~via ~target =
  let found = ref None in
  let hit d = target d && (found := Some d; true) in
  let parent =
    match strategy with
    | Bfs_shortest -> bfs sp ~from:[ from ] ~expand:via hit
    | Dfs_first ->
      let parent = Array.make sp.states None and seen = Array.make sp.states false in
      let rec go s =
        Array.iteri
          (fun k d ->
            if !found = None && not seen.(d) then begin
              seen.(d) <- true;
              parent.(d) <- Some (s, k);
              if (not (hit d)) && via d then go d
            end)
          (successors sp s)
      in
      seen.(from) <- true;
      if (not (hit from)) && via from then go from;
      parent
  in
  Option.map
    (fun tgt ->
      let states, io = path sp parent tgt in
      { states; io })
    !found

let rec is_state_formula (f : Ctl.t) =
  match f with
  | True | False | Prop _ | Deadlock -> true
  | Not g -> is_state_formula g
  | And (a, b) | Or (a, b) | Implies (a, b) -> is_state_formula a && is_state_formula b
  | Ax _ | Ex _ | Af _ | Ef _ | Ag _ | Eg _ | Au _ | Eu _ -> false

let witness (sp : space) ~strategy ~start psi =
  (* [holds f] fetches the set once; the predicate is then a bit test *)
  let holds f =
    let v = sp.sat f in
    fun s -> Bitvec.get v s
  in
  if not (holds psi start) then
    invalid_arg "Witness.witness: formula does not hold at the start state";
  let notes = ref [] in
  let note msg = if not (List.mem msg !notes) then notes := msg :: !notes in
  (* Completeness: does the returned run alone witness the formula, or does
     the evidence also rely on a residual claim about the final state
     (blocking, or an obligation that was not unfolded)? *)
  let complete = ref true in
  let residual why =
    complete := false;
    note why
  in
  let fallback s why =
    residual why;
    single s
  in
  (* the first transition out of [s] into a [pred] state *)
  let succ_with s pred =
    let succ = successors sp s in
    let rec go k =
      if k >= Array.length succ then None
      else if pred succ.(k) then Some (k, succ.(k))
      else go (k + 1)
    in
    go 0
  in
  let blocking s = Array.length (successors sp s) = 0 in
  let rec gen s (f : Ctl.t) =
    match f with
    | Deadlock ->
      (* the claim "this state blocks" is about absent behaviour: residual *)
      residual "evidence relies on the final state blocking";
      single s
    | _ when is_state_formula f -> single s
    | And (a, b) ->
      (* Both conjuncts hold at [s]; witness the temporal one (or the first
         if both are temporal — the second is then only asserted). *)
      if is_state_formula a then gen s b
      else if is_state_formula b then gen s a
      else begin
        residual
          (Printf.sprintf "conjunct %s holds at %s but is not unfolded in this witness"
             (Ctl.to_string b) (sp.name s));
        gen s a
      end
    | Or (a, b) -> if holds a s then gen s a else gen s b
    | Implies (a, b) -> if holds (Ctl.Not a) s then single s else gen s b
    | Ex g -> (
      match succ_with s (holds g) with
      | Some (k, t) -> join (step sp s k t) (gen t g)
      | None -> fallback s "EX witness: no successor found (inconsistent sat set)")
    | Ef (None, g) -> (
      match search sp strategy ~from:s ~via:(fun _ -> true) ~target:(holds g) with
      | Some frag -> join frag (gen (last_state frag) g)
      | None -> fallback s "EF witness: target unreachable (inconsistent sat set)")
    | Ef (Some b, g) -> bounded_walk s b ~f:Ctl.True ~g ~exist:`F
    | Eu (None, f1, g) -> (
      match search sp strategy ~from:s ~via:(holds f1) ~target:(holds g) with
      | Some frag -> join frag (gen (last_state frag) g)
      | None -> fallback s "EU witness: target unreachable (inconsistent sat set)")
    | Eu (Some b, f1, g) -> bounded_walk s b ~f:f1 ~g ~exist:`F
    | Eg (None, g) -> lasso s g
    | Eg (Some b, g) -> bounded_walk s b ~f:g ~g:Ctl.False ~exist:`G
    | Not (Au (None, f1, g)) ->
      (* ¬A(f U g) ≡ E(¬g U (¬f ∧ ¬g)) ∨ EG ¬g *)
      let left = Ctl.Eu (None, Ctl.Not g, Ctl.And (Ctl.Not f1, Ctl.Not g)) in
      if holds left s then gen s left else gen s (Ctl.Eg (None, Ctl.Not g))
    | _ ->
      fallback s
        (Printf.sprintf "witness extraction not supported for %s; property fails at this state"
           (Ctl.to_string f))
  (* EG lasso: follow successors inside the EG set until a blocking state or a
     revisit.  A closed loop is complete evidence (it repeats forever); a
     blocking end is a residual claim about missing behaviour. *)
  and lasso s g =
    let inside = holds (Ctl.Eg (None, g)) in
    let seen = Hashtbl.create 16 in
    let rec go s w =
      if blocking s then begin
        residual (Printf.sprintf "EG evidence ends at the blocking state %s" (sp.name s));
        w
      end
      else if Hashtbl.mem seen s then begin
        note (Printf.sprintf "loop closes at state %s" (sp.name s));
        w
      end
      else begin
        Hashtbl.add seen s ();
        match succ_with s inside with
        | Some (k, t) -> go t (extend sp w s k t)
        | None ->
          residual "EG evidence stops without a qualifying successor";
          w
      end
    in
    close (go s (walk_from s))
  (* Bounded EF/EU/EG walks guided by the DP satisfaction sets of the
     residual formulas at each elapsed time.  For `F the walk is complete
     iff it reaches a goal state; for `G iff it survives the whole window —
     an early blocking end is a residual claim. *)
  and bounded_walk s { Ctl.lo; hi } ~f ~g ~exist =
    let residual_formula k =
      let b = Ctl.bounds (max 0 (lo - k)) (hi - k) in
      match exist with
      | `F -> Ctl.Eu (Some b, f, g)
      | `G -> Ctl.Eg (Some b, f)
    in
    let rec go k s w =
      if k > hi then close w
      else
        let goal = match exist with `F -> k >= lo && holds g s | `G -> false in
        if goal then join (close w) (gen s g)
        else if k >= hi then close w
        else if blocking s then begin
          (match exist with
          | `F ->
            residual "bounded eventuality evidence stops at a blocking state"
          | `G ->
            if k < hi then
              residual
                (Printf.sprintf "bounded EG evidence ends early at the blocking state %s"
                   (sp.name s)));
          close w
        end
        else begin
          match succ_with s (holds (residual_formula (k + 1))) with
          | Some (j, t) -> go (k + 1) t (extend sp w s j t)
          | None ->
            residual "bounded evidence stops without a qualifying successor";
            close w
        end
    in
    go 0 s (walk_from s)
  in
  let frag = gen start psi in
  let run = Run.regular ~states:frag.states ~io:frag.io in
  let explanation =
    match List.rev !notes with [] -> "finite witness" | ns -> String.concat "; " ns
  in
  { run; explanation; complete = !complete }
