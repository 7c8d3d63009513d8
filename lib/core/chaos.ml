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
    ~help:"Transitions rebuilt by incremental closure updates (dirty rows only)."

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

let check_alphabet inputs outputs =
  let width = List.length inputs + List.length outputs in
  if width > max_alphabet then
    invalid_arg
      (Printf.sprintf
         "Chaos: |I| + |O| = %d is too large to enumerate the interaction powerset" width)

(* The T_c row (Definition 8): every interaction of ℘(I) × ℘(O) whose input
   pattern is not [answered], to [all] and then to [delta], inputs outer
   and outputs inner in increasing bit pattern, in front of [tail].  Pattern
   [k] of a signal list is the bitset its [Universe.of_list] interns, so no
   name list is ever materialized. *)
let tc_row ?(answered = fun _ -> false) ~n_in ~n_out ~all ~delta tail =
  let acc = ref tail in
  for a = n_in - 1 downto 0 do
    if not (answered a) then begin
      let input = Bitset.of_int_unsafe a in
      for o = n_out - 1 downto 0 do
        let output = Bitset.of_int_unsafe o in
        acc :=
          { Automaton.input; output; dst = all } :: { Automaton.input; output; dst = delta }
          :: !acc
      done
    end
  done;
  !acc

let chaotic_automaton ~name ~inputs ~outputs =
  check_alphabet inputs outputs;
  let inputs_u = Universe.of_list inputs and outputs_u = Universe.of_list outputs in
  let props_u = Universe.of_list [ chaos_prop ] in
  let chaos_label = Universe.set_of_names props_u [ chaos_prop ] in
  let row =
    tc_row ~n_in:(1 lsl Universe.size inputs_u) ~n_out:(1 lsl Universe.size outputs_u) ~all:0
      ~delta:1 []
  in
  Automaton.of_packed ~assume_unique_names:true ~name ~inputs:inputs_u ~outputs:outputs_u
    ~props:props_u
    ~state_names:[| s_all; s_delta |]
    ~labels:[| chaos_label; chaos_label |]
    ~trans:[| row; [] |] ~initial:[ 0; 1 ] ()

(* -- the closure handle ------------------------------------------------------

   Core state [k] of the model becomes closure states [2k], its open copy
   (named like the state), and [2k+1], its closed copy; [s_∀] and [s_δ]
   come last.  The index keeps what the rows are built from, per core
   state: its known edges and the input patterns it has answered (known or
   refused).  The model is append-only (states, transitions and refusals
   grow at the tail), so [extend] reads the delta between two models from
   element counts, and a fresh closure extends an empty index. *)
type index = {
  label_of : string -> string list;
  extra_props : string list;
  inputs_u : Universe.t;
  outputs_u : Universe.t;
  n_in : int;
  n_out : int;
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
  check_alphabet m.Incomplete.input_signals m.Incomplete.output_signals;
  let inputs_u = Universe.of_list m.Incomplete.input_signals in
  let outputs_u = Universe.of_list m.Incomplete.output_signals in
  (* declared propositions first, then label propositions in order of first
     mention over the states *)
  let declared = chaos_prop :: List.filter (fun p -> p <> chaos_prop) extra_props in
  {
    label_of;
    extra_props;
    inputs_u;
    outputs_u;
    n_in = 1 lsl Universe.size inputs_u;
    n_out = 1 lsl Universe.size outputs_u;
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
   its target (Definition 9's four ⊎-components over T), in front of
   [tail]. *)
let known ix k tail =
  List.fold_left
    (fun acc (input, output, d) ->
      { Automaton.input; output; dst = 2 * d } :: { Automaton.input; output; dst = (2 * d) + 1 }
      :: acc)
    tail ix.edges.(k)

(* The closure of [m] once [extend] has returned [delta].  A dirty closed
   copy's row is its known edges; a dirty open copy's row continues with an
   escape to chaos on every interaction whose input pattern it has not
   answered.  Without [prev] every row is dirty and the automaton is packed
   afresh; with [prev], the closure before the delta, clean rows are carried
   over (destinations past its core shifted with [s_∀]/[s_δ]) and its index
   is spliced by [Automaton.patch].  Returns the closure and the number of
   transitions built. *)
let build ix ?prev (m : Incomplete.t) (old_n_core, fresh, dirty) =
  let n = (2 * ix.n_core) + 2 in
  let all = n - 2 and old_all = 2 * old_n_core in
  let shift = all - old_all in
  let chaos_label = Universe.set_of_names ix.props [ chaos_prop ] in
  let state_names = Array.make n s_delta and labels = Array.make n chaos_label in
  state_names.(all) <- s_all;
  let trans = Array.make n [] in
  let carry row =
    if shift = 0 then row
    else
      List.map
        (fun (t : Automaton.trans) ->
          if t.dst >= old_all then { t with dst = t.dst + shift } else t)
        row
  in
  (match prev with
  | Some (p : Automaton.t) ->
    Array.blit p.Automaton.state_names 0 state_names 0 old_all;
    Array.blit p.Automaton.labels 0 labels 0 old_all;
    (* only open copies and [s_∀] move to chaos *)
    for s = 0 to old_all - 1 do
      if not dirty.(s) then
        trans.(s) <- (if s land 1 = 0 then carry p.Automaton.trans.(s) else p.Automaton.trans.(s))
    done;
    trans.(all) <- carry p.Automaton.trans.(old_all)
  | None -> trans.(all) <- tc_row ~n_in:ix.n_in ~n_out:ix.n_out ~all ~delta:(all + 1) []);
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
  let set s row =
    trans.(s) <- row;
    built := !built + List.length row
  in
  for k = 0 to ix.n_core - 1 do
    if dirty.(2 * k) then
      set (2 * k)
        (known ix k
           (tc_row ~answered:(Hashtbl.mem ix.answered.(k)) ~n_in:ix.n_in ~n_out:ix.n_out ~all
              ~delta:(all + 1) []));
    if dirty.((2 * k) + 1) then set ((2 * k) + 1) (known ix k [])
  done;
  let initial =
    List.concat_map
      (fun q ->
        let k = Hashtbl.find ix.pos q in
        [ 2 * k; (2 * k) + 1 ])
      m.Incomplete.initial
  in
  let name = "chaos(" ^ m.Incomplete.name ^ ")" in
  let auto =
    match prev with
    | None ->
      (* names are unique: the model's are, and [check_name] keeps them
         apart from the copies' and the chaos states' *)
      Automaton.of_packed ~assume_unique_names:true ~name ~inputs:ix.inputs_u
        ~outputs:ix.outputs_u ~props:ix.props ~state_names ~labels ~trans ~initial ()
    | Some old ->
      let old_of =
        Array.init n (fun s -> if s < old_all then s else if s >= all then s - shift else -1)
      in
      Automaton.patch ~old ~name ~props:ix.props ~state_names ~labels ~trans ~initial ~dirty
        ~old_of
        ~dst_map:(fun d -> if d >= old_all then d + shift else d)
        ()
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

let structurally_equal (a : Automaton.t) (b : Automaton.t) =
  a.Automaton.state_names = b.Automaton.state_names
  && a.Automaton.labels = b.Automaton.labels
  && a.Automaton.trans = b.Automaton.trans
  && a.Automaton.initial = b.Automaton.initial
  && Universe.to_list a.Automaton.props = Universe.to_list b.Automaton.props
  && Universe.to_list a.Automaton.inputs = Universe.to_list b.Automaton.inputs
  && Universe.to_list a.Automaton.outputs = Universe.to_list b.Automaton.outputs

(* The patched index against a fresh one's, up to interaction-id renaming:
   [a]'s segments are sorted by [a]'s ids, and each one, renamed into [b]'s
   ids by label and stably re-sorted, is [b]'s segment (labels, dsts);
   adjacency-order labels agree. *)
let same_index (a : Automaton.t) (b : Automaton.t) =
  let module C = Automaton.Csr in
  let row = C.row a in
  let segment m s f = List.init (row.(s + 1) - row.(s)) (fun j -> f m (row.(s) + j)) in
  let id m k = (C.inter m).(k) and dst m k = (C.dst m).(k) in
  let adj_label m k = Automaton.interaction_io m (C.adj_inter m).(k) in
  let renamed m k =
    let i, o = Automaton.interaction_io m (id m k) in
    (Automaton.interaction_id b i o, dst m k)
  in
  row = C.row b
  && List.for_all
       (fun s ->
         let ids = segment a s id in
         ids = List.sort compare ids
         && List.stable_sort (fun (x, _) (y, _) -> compare x y) (segment a s renamed)
            = segment b s (fun m k -> (Some (id m k), dst m k))
         && segment a s adj_label = segment b s adj_label)
       (List.init (Automaton.num_states a) Fun.id)

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
      if not (structurally_equal a fresh.auto && same_index a fresh.auto) then
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
