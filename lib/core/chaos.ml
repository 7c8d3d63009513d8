module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Bitset = Mechaml_util.Bitset
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_closure_states =
  Metrics.histogram "core_closure_states"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e5 11)
    ~help:"States per chaotic-closure automaton."

let m_closure_transitions =
  Metrics.histogram "core_closure_transitions"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e6 13)
    ~help:"Transitions per chaotic-closure automaton."

let m_delta_edges =
  Metrics.counter "core_closure_delta_edges_total"
    ~help:"Row entries (explicit transitions and excluded input patterns) rebuilt by incremental closure updates (dirty rows only)."

let m_updates =
  Metrics.counter "core_closure_updates_total"
    ~help:"Incremental closure updates applied (full rebuilds not counted)."

let chaos_prop = "p_chaos"

let s_all = "s_all"

let s_delta = "s_delta"

let closed_suffix = "@0"

type origin = Core of string | Chaotic

let origin name =
  if name = s_all || name = s_delta then Chaotic
  else if String.length name > 2 && String.sub name (String.length name - 2) 2 = closed_suffix
  then Core (String.sub name 0 (String.length name - 2))
  else Core name

let max_alphabet = 30

let check_width ~what ~cap inputs outputs =
  let width = Universe.size inputs + Universe.size outputs in
  if width > cap then
    invalid_arg (Printf.sprintf "Chaos: |I| + |O| = %d is too large to %s" width what)

(* The escape's rows (Definition 8's T_c minus the excluded inputs): every
   interaction of ℘(I) × ℘(O) whose input pattern [e] covers, to each of
   its destinations, inputs outer and outputs inner in increasing bit
   pattern.  Pattern [k] of a signal list is the bitset its
   [Universe.of_list] interns, so no name list is ever materialized. *)
let expand_escape ~n_in ~n_out (e : Automaton.escape) =
  let acc = ref [] in
  for a = n_in - 1 downto 0 do
    if Automaton.escapes_input e a then begin
      let input = Bitset.of_int_unsafe a in
      for o = n_out - 1 downto 0 do
        let output = Bitset.of_int_unsafe o in
        acc :=
          List.fold_right
            (fun dst acc -> { Automaton.input; output; dst } :: acc)
            e.Automaton.dsts !acc
      done
    end
  done;
  !acc

let materialize (a : Automaton.t) =
  if not (Automaton.has_escapes a) then a
  else begin
    check_width ~what:"enumerate the interaction powerset" ~cap:max_alphabet a.Automaton.inputs
      a.Automaton.outputs;
    let n_in = 1 lsl Universe.size a.Automaton.inputs
    and n_out = 1 lsl Universe.size a.Automaton.outputs in
    Automaton.of_packed ~assume_unique_names:true ~name:a.Automaton.name ~inputs:a.Automaton.inputs
      ~outputs:a.Automaton.outputs ~props:a.Automaton.props ~state_names:a.Automaton.state_names
      ~labels:a.Automaton.labels
      ~trans:
        (Array.mapi
           (fun s row ->
             match Automaton.escape a s with
             | Some e -> row @ expand_escape ~n_in ~n_out e
             | None -> row)
           a.Automaton.trans)
      ~initial:a.Automaton.initial ()
  end

(* [s_∀] (state [all]) escapes to itself and to [s_δ] on everything. *)
let to_chaos all = { Automaton.excluded = [||]; dsts = [ all; all + 1 ] }

let chaotic_automaton ~name ~inputs ~outputs =
  let inputs_u = Universe.of_list inputs and outputs_u = Universe.of_list outputs in
  let props_u = Universe.of_list [ chaos_prop ] in
  let chaos_label = Universe.set_of_names props_u [ chaos_prop ] in
  materialize
    (Automaton.of_packed ~assume_unique_names:true ~name ~inputs:inputs_u ~outputs:outputs_u
       ~props:props_u
       ~state_names:[| s_all; s_delta |]
       ~labels:[| chaos_label; chaos_label |]
       ~trans:[| []; [] |]
       ~escapes:[| Some (to_chaos 0); None |]
       ~initial:[ 0; 1 ] ())

(* -- the closure handle ------------------------------------------------------

   Core state [k] of the model becomes closure states [2k], its open copy
   (named like the state), and [2k+1], its closed copy; [s_∀] and [s_δ]
   come last.  Both copies carry [k]'s known edges explicitly; the open copy
   and [s_∀] escape to [s_∀]/[s_δ] on every input they do not exclude —
   the open copy excludes the input patterns [k] has answered (known or
   refused), [s_∀] nothing.  The index keeps what the rows are built from,
   per core state: its known edges and its answered patterns.  The model
   is append-only (states, transitions and refusals grow at the tail), so
   [extend] reads the delta between two models from element counts, and a
   fresh closure extends an empty index. *)
type index = {
  label_of : string -> string list;
  extra_props : string list;
  inputs_u : Universe.t;
  outputs_u : Universe.t;
  pos : (string, int) Hashtbl.t;
  mutable rev_props : string list; (* the proposition universe, reversed *)
  mutable props : Universe.t;
  mutable edges : (Bitset.t * Bitset.t * int) list array;
      (* known (input, output, target) per core state, newest first *)
  mutable answered : (int, unit) Hashtbl.t array;
  mutable n_core : int;
  mutable seen_trans : int;
  mutable seen_refusals : int;
}

type inc = {
  ix : index;
  mutable auto : Automaton.t;
  mutable delta_edges : int;
  mutable dirty : int list; (* closure states whose rows the last delta changed *)
}

let auto inc = inc.auto

let delta_edges inc = inc.delta_edges

let dirty_states inc = inc.dirty

let index ~label_of ~extra_props (m : Incomplete.t) =
  let inputs_u = Universe.of_list m.Incomplete.input_signals in
  let outputs_u = Universe.of_list m.Incomplete.output_signals in
  check_width ~what:"pack into one word" ~cap:Bitset.max_width inputs_u outputs_u;
  (* declared propositions first, then label propositions in order of first
     mention over the states *)
  let declared = chaos_prop :: List.filter (fun p -> p <> chaos_prop) extra_props in
  {
    label_of;
    extra_props;
    inputs_u;
    outputs_u;
    pos = Hashtbl.create 16;
    rev_props = List.rev declared;
    props = Universe.of_list declared;
    edges = [||];
    answered = [||];
    n_core = 0;
    seen_trans = 0;
    seen_refusals = 0;
  }

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let check_name s =
  if s = s_all || s = s_delta then
    invalid_arg (Printf.sprintf "Chaos: state name %S collides with a chaos state" s);
  if String.length s >= 2 && String.sub s (String.length s - 2) 2 = closed_suffix then
    invalid_arg
      (Printf.sprintf "Chaos: state name %S collides with the %S copy suffix" s closed_suffix)

(* Extend the index by [m]'s delta.  Returns the core size before, the new
   states with their propositions, and flags over the grown closure for the
   states whose rows the delta changes: both copies of a new state and of a
   state that gained a known edge, the open copy of one that gained a
   refusal. *)
let extend ix (m : Incomplete.t) =
  let old_n_core = ix.n_core in
  let fresh = drop old_n_core m.Incomplete.states in
  List.iter check_name fresh;
  let fresh =
    List.mapi
      (fun j s ->
        Hashtbl.replace ix.pos s (old_n_core + j);
        let ps = ix.label_of s in
        List.iter
          (fun p -> if not (List.mem p ix.rev_props) then ix.rev_props <- p :: ix.rev_props)
          ps;
        (s, ps))
      fresh
  in
  let n_core = old_n_core + List.length fresh in
  if fresh <> [] then begin
    let grow a z = Array.init n_core (fun k -> if k < old_n_core then a.(k) else z ()) in
    ix.edges <- grow ix.edges (fun () -> []);
    ix.answered <- grow ix.answered (fun () -> Hashtbl.create 8);
    ix.props <- Universe.of_list (List.rev ix.rev_props)
  end;
  let dirty = Array.make ((2 * n_core) + 2) false in
  Array.fill dirty (2 * old_n_core) (2 * (n_core - old_n_core)) true;
  let answer k inputs =
    let input = Universe.set_of_names ix.inputs_u inputs in
    Hashtbl.replace ix.answered.(k) (Bitset.to_int input) ();
    dirty.(2 * k) <- true;
    input
  in
  let new_trans = drop ix.seen_trans m.Incomplete.trans in
  List.iter
    (fun (src, (i : Incomplete.interaction), dst) ->
      let k = Hashtbl.find ix.pos src in
      let input = answer k i.in_signals in
      let output = Universe.set_of_names ix.outputs_u i.out_signals in
      ix.edges.(k) <- (input, output, Hashtbl.find ix.pos dst) :: ix.edges.(k);
      dirty.((2 * k) + 1) <- true)
    new_trans;
  let new_refusals = drop ix.seen_refusals m.Incomplete.refusals in
  List.iter (fun (s, inputs) -> ignore (answer (Hashtbl.find ix.pos s) inputs)) new_refusals;
  ix.n_core <- n_core;
  ix.seen_trans <- ix.seen_trans + List.length new_trans;
  ix.seen_refusals <- ix.seen_refusals + List.length new_refusals;
  (old_n_core, fresh, dirty)

(* Core state [k]'s known edges in the model's order, each to both copies of
   its target (Definition 9's four ⊎-components over T). *)
let known ix k =
  List.fold_left
    (fun acc (input, output, d) ->
      { Automaton.input; output; dst = 2 * d } :: { Automaton.input; output; dst = (2 * d) + 1 }
      :: acc)
    [] ix.edges.(k)

(* The closure of [m] once [extend] has returned [delta].  Only dirty rows
   are rebuilt: a copy's known edges, and an open copy's excluded inputs.
   With [prev], the closure before the delta, clean rows and the names and
   labels of old states are carried over; known edges never point at
   [s_∀]/[s_δ], so a grown closure moves only the escapes' destinations.
   Returns the closure and the number of row entries (explicit
   transitions and excluded patterns) built. *)
let build ix ?prev (m : Incomplete.t) (old_n_core, fresh, dirty) =
  let n = (2 * ix.n_core) + 2 in
  let all = n - 2 and old_all = 2 * old_n_core in
  let chaos_label = Universe.set_of_names ix.props [ chaos_prop ] in
  let state_names = Array.make n s_delta and labels = Array.make n chaos_label in
  state_names.(all) <- s_all;
  let trans = Array.make n [] and excluded = Array.make ix.n_core [||] in
  (match prev with
  | Some (p : Automaton.t) ->
    Array.blit p.Automaton.state_names 0 state_names 0 old_all;
    Array.blit p.Automaton.labels 0 labels 0 old_all;
    Array.blit p.Automaton.trans 0 trans 0 old_all;
    for k = 0 to old_n_core - 1 do
      Option.iter
        (fun (e : Automaton.escape) -> excluded.(k) <- e.excluded)
        (Automaton.escape p (2 * k))
    done
  | None -> ());
  List.iteri
    (fun j (s, ps) ->
      let k = old_n_core + j in
      let l = Universe.set_of_names ix.props ps in
      state_names.(2 * k) <- s;
      state_names.((2 * k) + 1) <- s ^ closed_suffix;
      labels.(2 * k) <- l;
      labels.((2 * k) + 1) <- l)
    fresh;
  let built = ref 0 in
  for k = 0 to ix.n_core - 1 do
    if dirty.(2 * k) || dirty.((2 * k) + 1) then begin
      let row = known ix k in
      let len = List.length row in
      if dirty.(2 * k) then begin
        trans.(2 * k) <- row;
        excluded.(k) <-
          Array.of_list
            (List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) ix.answered.(k) []));
        built := !built + len + Array.length excluded.(k)
      end;
      if dirty.((2 * k) + 1) then begin
        trans.((2 * k) + 1) <- row;
        built := !built + len
      end
    end
  done;
  let dsts = (to_chaos all).Automaton.dsts in
  let escapes =
    Array.init n (fun s ->
        if s = all then Some (to_chaos all)
        else if s < all && s land 1 = 0 then
          Some { Automaton.excluded = excluded.(s / 2); dsts }
        else None)
  in
  let initial =
    List.concat_map
      (fun q ->
        let k = Hashtbl.find ix.pos q in
        [ 2 * k; (2 * k) + 1 ])
      m.Incomplete.initial
  in
  (* names are unique: the model's are, and [check_name] keeps them apart
     from the copies' and the chaos states' *)
  let auto =
    Automaton.of_packed ~assume_unique_names:true
      ~name:("chaos(" ^ m.Incomplete.name ^ ")")
      ~inputs:ix.inputs_u ~outputs:ix.outputs_u ~props:ix.props ~state_names ~labels ~trans
      ~escapes ~initial ()
  in
  (auto, !built)

let dirty_list dirty = List.filter (fun s -> dirty.(s)) (List.init (Array.length dirty) Fun.id)

let inc_closure ?(label_of = fun _ -> []) ?(extra_props = []) (m : Incomplete.t) =
  let ix = index ~label_of ~extra_props m in
  let ((_, _, dirty) as delta) = extend ix m in
  { ix; auto = fst (build ix m delta); delta_edges = 0; dirty = dirty_list dirty }

let adopt ?(label_of = fun _ -> []) ?(extra_props = []) ~prev (m : Incomplete.t) a =
  let inc =
    match prev with
    | Some inc -> inc
    | None -> { ix = index ~label_of ~extra_props m; auto = a; delta_edges = 0; dirty = [] }
  in
  let _, _, dirty = extend inc.ix m in
  inc.auto <- a;
  inc.delta_edges <- 0;
  inc.dirty <- dirty_list dirty;
  inc

let update ?(debug = false) inc (m : Incomplete.t) =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let ((_, _, dirty) as delta) = extend inc.ix m in
  inc.dirty <- dirty_list dirty;
  inc.delta_edges <- 0;
  if inc.dirty <> [] then begin
    let a, built = build inc.ix ~prev:inc.auto m delta in
    inc.auto <- a;
    inc.delta_edges <- built;
    Metrics.add m_delta_edges built;
    Metrics.incr m_updates;
    if debug then begin
      let fresh = inc_closure ~label_of:inc.ix.label_of ~extra_props:inc.ix.extra_props m in
      if not (Automaton.equal a fresh.auto) then
        failwith "Chaos.update: incremental closure diverged from the fresh construction"
    end
  end;
  match t0 with
  | Some start_us ->
    Trace.complete ~name:"core.closure.update" ~start_us
      ~args:
        [
          ("model", Trace.Str m.Incomplete.name);
          ("delta_edges", Trace.Int inc.delta_edges);
          ("dirty", Trace.Int (List.length inc.dirty));
        ]
      ()
  | None -> ()

let closure ?label_of ?extra_props (m : Incomplete.t) =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let auto = (inc_closure ?label_of ?extra_props m).auto in
  if t0 <> None || Metrics.enabled () then begin
    let states = Automaton.num_states auto in
    if Metrics.enabled () then begin
      Metrics.observe m_closure_states (float_of_int states);
      Metrics.observe m_closure_transitions
        (float_of_int (Automaton.num_transitions auto))
    end;
    match t0 with
    | Some start_us ->
      Trace.complete ~name:"core.closure" ~start_us
        ~args:
          [ ("model", Trace.Str m.Incomplete.name); ("states", Trace.Int states) ]
        ()
    | None -> ()
  end;
  auto
