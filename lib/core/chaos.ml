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

(* All subsets of a name list, in increasing bit-pattern order with respect
   to the list position of each name (the order the closure enumerates
   interactions in).  Kept as a debugging/inspection helper — the closure
   itself generates interactions directly as bitset patterns.  Linear in the
   2^n output size and fully tail-recursive, unlike the former
   [acc @ List.map ...] accumulation. *)
let subsets names =
  List.rev
    (List.fold_left
       (fun rev_acc n -> List.rev_append (List.rev_map (fun s -> n :: s) rev_acc) rev_acc)
       [ [] ] names)

(* The powerset enumerations below run over raw bit patterns: subset k of a
   signal list maps to the bitset with pattern k in its Universe (of_list
   interns names in list order), and [subsets] enumerates exactly in
   increasing k — so generated transitions reproduce the Builder-based
   construction byte for byte, without materializing name lists. *)

let chaotic_automaton ~name ~inputs ~outputs =
  check_alphabet inputs outputs;
  let inputs_u = Universe.of_list inputs and outputs_u = Universe.of_list outputs in
  let props_u = Universe.of_list [ chaos_prop ] in
  let chaos_label = Universe.set_of_names props_u [ chaos_prop ] in
  let n_in = 1 lsl Universe.size inputs_u and n_out = 1 lsl Universe.size outputs_u in
  let trans_all = ref [] in
  for a = n_in - 1 downto 0 do
    let input = Bitset.of_int_unsafe a in
    for o = n_out - 1 downto 0 do
      let output = Bitset.of_int_unsafe o in
      trans_all :=
        { Automaton.input; output; dst = 0 } :: { Automaton.input; output; dst = 1 }
        :: !trans_all
    done
  done;
  Automaton.of_packed ~assume_unique_names:true ~name ~inputs:inputs_u ~outputs:outputs_u
    ~props:props_u
    ~state_names:[| s_all; s_delta |]
    ~labels:[| chaos_label; chaos_label |]
    ~trans:[| !trans_all; [] |] ~initial:[ 0; 1 ] ()

let closure_unobserved ?(label_of = fun _ -> []) ?(extra_props = []) (m : Incomplete.t) =
  check_alphabet m.Incomplete.input_signals m.Incomplete.output_signals;
  List.iter
    (fun s ->
      if s = s_all || s = s_delta then
        invalid_arg (Printf.sprintf "Chaos.closure: state name %S collides with a chaos state" s);
      if String.length s >= 2 && String.sub s (String.length s - 2) 2 = closed_suffix then
        invalid_arg
          (Printf.sprintf "Chaos.closure: state name %S collides with the %S copy suffix" s
             closed_suffix))
    m.Incomplete.states;
  let inputs_u = Universe.of_list m.Incomplete.input_signals in
  let outputs_u = Universe.of_list m.Incomplete.output_signals in
  let n_in = 1 lsl Universe.size inputs_u and n_out = 1 lsl Universe.size outputs_u in
  (* Proposition universe: declared props first, then label props in order
     of first mention over the states (the Builder's note-on-first-mention
     order). *)
  let declared = chaos_prop :: List.filter (fun p -> p <> chaos_prop) extra_props in
  let rev_props = ref (List.rev declared) in
  let state_props =
    List.map
      (fun s ->
        let ps = label_of s in
        List.iter (fun p -> if not (List.mem p !rev_props) then rev_props := p :: !rev_props) ps;
        ps)
      m.Incomplete.states
  in
  let props_u = Universe.of_list (List.rev !rev_props) in
  let n_core = List.length m.Incomplete.states in
  let n = (2 * n_core) + 2 in
  let all_i = n - 2 and delta_i = n - 1 in
  let state_names = Array.make n "" in
  let pos : (string, int) Hashtbl.t = Hashtbl.create (2 * n_core) in
  List.iteri
    (fun k s ->
      Hashtbl.replace pos s k;
      state_names.(2 * k) <- s;
      state_names.((2 * k) + 1) <- s ^ closed_suffix)
    m.Incomplete.states;
  state_names.(all_i) <- s_all;
  state_names.(delta_i) <- s_delta;
  let labels = Array.make n (Universe.set_of_names props_u [ chaos_prop ]) in
  List.iteri
    (fun k ps ->
      let l = Universe.set_of_names props_u ps in
      labels.(2 * k) <- l;
      labels.((2 * k) + 1) <- l)
    state_props;
  (* Adjacency lists accumulate reversed, flipped once at the end, so the
     final per-state order is the order transitions are generated in. *)
  let acc = Array.make n [] in
  let add s t = acc.(s) <- t :: acc.(s) in
  (* Index the known inputs and refusals per state up front: the powerset
     scan below asks "known or refused?" 2^|I| times per state, which used
     to be a list scan over all of T each. *)
  let known = Array.init n_core (fun _ -> Hashtbl.create 8) in
  let refused = Array.init n_core (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (src, (i : Incomplete.interaction), _) ->
      Hashtbl.replace known.(Hashtbl.find pos src)
        (Bitset.to_int (Universe.set_of_names inputs_u i.in_signals))
        ())
    m.Incomplete.trans;
  List.iter
    (fun (s, inputs) ->
      Hashtbl.replace refused.(Hashtbl.find pos s)
        (Bitset.to_int (Universe.set_of_names inputs_u inputs))
        ())
    m.Incomplete.refusals;
  (* Known transitions: each copy can move to each copy of the target
     (Definition 9, the four ⊎-components over T). *)
  List.iter
    (fun (src, (i : Incomplete.interaction), dst) ->
      let input = Universe.set_of_names inputs_u i.in_signals in
      let output = Universe.set_of_names outputs_u i.out_signals in
      let sk = Hashtbl.find pos src and dk = Hashtbl.find pos dst in
      add (2 * sk) { Automaton.input; output; dst = 2 * dk };
      add (2 * sk) { Automaton.input; output; dst = (2 * dk) + 1 };
      add ((2 * sk) + 1) { Automaton.input; output; dst = 2 * dk };
      add ((2 * sk) + 1) { Automaton.input; output; dst = (2 * dk) + 1 })
    m.Incomplete.trans;
  (* Unknown interactions escape to chaos from the open copies: every input
     set that is neither refused nor already answered, with every output
     set. *)
  for k = 0 to n_core - 1 do
    for a = 0 to n_in - 1 do
      if not (Hashtbl.mem known.(k) a || Hashtbl.mem refused.(k) a) then begin
        let input = Bitset.of_int_unsafe a in
        for o = 0 to n_out - 1 do
          let output = Bitset.of_int_unsafe o in
          add (2 * k) { Automaton.input; output; dst = all_i };
          add (2 * k) { Automaton.input; output; dst = delta_i }
        done
      end
    done
  done;
  (* The embedded chaotic automaton T_c. *)
  for a = 0 to n_in - 1 do
    let input = Bitset.of_int_unsafe a in
    for o = 0 to n_out - 1 do
      let output = Bitset.of_int_unsafe o in
      add all_i { Automaton.input; output; dst = all_i };
      add all_i { Automaton.input; output; dst = delta_i }
    done
  done;
  let initial =
    List.concat_map
      (fun q ->
        let k = Hashtbl.find pos q in
        [ 2 * k; (2 * k) + 1 ])
      m.Incomplete.initial
  in
  Automaton.of_packed
    ~name:("chaos(" ^ m.Incomplete.name ^ ")")
    ~inputs:inputs_u ~outputs:outputs_u ~props:props_u ~state_names ~labels
    ~trans:(Array.map List.rev acc) ~initial ()

(* -- incremental closure --------------------------------------------------- *)

let m_delta_edges =
  Metrics.counter "core_closure_delta_edges_total"
    ~help:"Transitions rebuilt by incremental closure updates (dirty rows only)."

let m_updates =
  Metrics.counter "core_closure_updates_total"
    ~help:"Incremental closure updates applied (full rebuilds not counted)."

(* Bookkeeping that lets [update] patch the previous closure instead of
   re-deriving it: the position/known/refused indexes of
   [closure_unobserved], plus the forward-order adjacency rows and labels of
   the automaton it produced.  The incomplete model is append-only (states,
   transitions and refusals grow at the tail), so the delta between two
   models is recovered from plain element counts. *)
type inc = {
  i_label_of : string -> string list;
  i_extra_props : string list;
  i_inputs_u : Universe.t;
  i_outputs_u : Universe.t;
  i_n_in : int;
  i_n_out : int;
  i_pos : (string, int) Hashtbl.t;
  mutable i_rev_props : string list; (* proposition universe, reversed *)
  mutable i_known : (int, unit) Hashtbl.t array;
  mutable i_refused : (int, unit) Hashtbl.t array;
  mutable i_n_core : int;
  mutable i_seen_trans : int;
  mutable i_seen_refusals : int;
  mutable i_rows : Automaton.trans list array; (* forward order, length n *)
  mutable i_labels : Bitset.t array;
  mutable i_auto : Automaton.t;
  mutable i_delta_edges : int;
  mutable i_total_delta_edges : int;
  mutable i_dirty : int list; (* closure states dirtied by the last update *)
  mutable i_grew : bool;
}

let auto inc = inc.i_auto

let delta_edges inc = inc.i_delta_edges

let total_delta_edges inc = inc.i_total_delta_edges

let dirty_states inc = inc.i_dirty

let grew inc = inc.i_grew

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let in_pattern inc (i : Incomplete.interaction) =
  Bitset.to_int (Universe.set_of_names inc.i_inputs_u i.in_signals)

(* Wrap an existing closure automaton of [m] (freshly built or replayed from
   a cache) into incremental bookkeeping.  [dirty]/[grew] describe how [m]
   relates to the handle the caller is replacing, so the loop's dirty set
   stays exact even when the automaton itself came from a memo hit. *)
let adopt_auto ~label_of ~extra_props ~dirty ~grew:grew_flag ~delta (m : Incomplete.t) a =
  let inputs_u = Universe.of_list m.Incomplete.input_signals in
  let outputs_u = Universe.of_list m.Incomplete.output_signals in
  let n_core = List.length m.Incomplete.states in
  let n = (2 * n_core) + 2 in
  let pos = Hashtbl.create (2 * n_core) in
  List.iteri (fun k s -> Hashtbl.replace pos s k) m.Incomplete.states;
  let known = Array.init n_core (fun _ -> Hashtbl.create 8) in
  let refused = Array.init n_core (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (src, (i : Incomplete.interaction), _) ->
      Hashtbl.replace known.(Hashtbl.find pos src)
        (Bitset.to_int (Universe.set_of_names inputs_u i.in_signals))
        ())
    m.Incomplete.trans;
  List.iter
    (fun (s, inputs) ->
      Hashtbl.replace refused.(Hashtbl.find pos s)
        (Bitset.to_int (Universe.set_of_names inputs_u inputs))
        ())
    m.Incomplete.refusals;
  {
    i_label_of = label_of;
    i_extra_props = extra_props;
    i_inputs_u = inputs_u;
    i_outputs_u = outputs_u;
    i_n_in = 1 lsl Universe.size inputs_u;
    i_n_out = 1 lsl Universe.size outputs_u;
    i_pos = pos;
    i_rev_props = List.rev (Universe.to_list a.Automaton.props);
    i_known = known;
    i_refused = refused;
    i_n_core = n_core;
    i_seen_trans = List.length m.Incomplete.trans;
    i_seen_refusals = List.length m.Incomplete.refusals;
    i_rows = Array.init n (Automaton.transitions_from a);
    i_labels = Array.init n (Automaton.label a);
    i_auto = a;
    i_delta_edges = delta;
    i_total_delta_edges = delta;
    i_dirty = dirty;
    i_grew = grew_flag;
  }

let all_states_dirty (m : Incomplete.t) =
  List.concat (List.mapi (fun k _ -> [ 2 * k; (2 * k) + 1 ]) m.Incomplete.states)

let inc_closure ?(label_of = fun _ -> []) ?(extra_props = []) (m : Incomplete.t) =
  let a = closure_unobserved ~label_of ~extra_props m in
  adopt_auto ~label_of ~extra_props ~dirty:(all_states_dirty m) ~grew:true ~delta:0 m a

(* Dirty delta of [m] relative to the handle: closure states whose adjacency
   rows differ, and whether the core state set grew.  The open copy [2k] of
   a state changes on any new fact at [k] (a known edge appears and/or
   escapes disappear); the closed copy [2k+1] only when a new transition
   leaves [k]. *)
let delta_of inc (m : Incomplete.t) =
  let new_states = drop inc.i_n_core m.Incomplete.states in
  let new_trans = drop inc.i_seen_trans m.Incomplete.trans in
  let new_refusals = drop inc.i_seen_refusals m.Incomplete.refusals in
  let dirty = Hashtbl.create 8 in
  List.iter
    (fun (src, _, _) ->
      match Hashtbl.find_opt inc.i_pos src with
      | Some k ->
        Hashtbl.replace dirty (2 * k) ();
        Hashtbl.replace dirty ((2 * k) + 1) ()
      | None -> () (* a new state: dirtied below *))
    new_trans;
  List.iter
    (fun (s, _) ->
      match Hashtbl.find_opt inc.i_pos s with
      | Some k -> Hashtbl.replace dirty (2 * k) ()
      | None -> ())
    new_refusals;
  List.iteri
    (fun j _ ->
      let k = inc.i_n_core + j in
      Hashtbl.replace dirty (2 * k) ();
      Hashtbl.replace dirty ((2 * k) + 1) ())
    new_states;
  (new_states, new_trans, new_refusals, List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) dirty []))

let adopt ?(label_of = fun _ -> []) ?(extra_props = []) ~prev (m : Incomplete.t) a =
  match prev with
  | None -> adopt_auto ~label_of ~extra_props ~dirty:(all_states_dirty m) ~grew:true ~delta:0 m a
  | Some inc ->
    let new_states, _, _, dirty = delta_of inc m in
    adopt_auto ~label_of:inc.i_label_of ~extra_props:inc.i_extra_props ~dirty
      ~grew:(new_states <> []) ~delta:0 m a

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
  let new_states, new_trans, new_refusals, dirty = delta_of inc m in
  if new_states = [] && new_trans = [] && new_refusals = [] then begin
    inc.i_delta_edges <- 0;
    inc.i_dirty <- [];
    inc.i_grew <- false
  end
  else begin
    List.iter
      (fun s ->
        if s = s_all || s = s_delta then
          invalid_arg
            (Printf.sprintf "Chaos.update: state name %S collides with a chaos state" s);
        if String.length s >= 2 && String.sub s (String.length s - 2) 2 = closed_suffix then
          invalid_arg
            (Printf.sprintf "Chaos.update: state name %S collides with the %S copy suffix" s
               closed_suffix))
      new_states;
    let old_n_core = inc.i_n_core in
    let old_n = (2 * old_n_core) + 2 in
    let old_all = old_n - 2 in
    let n_core = old_n_core + List.length new_states in
    let n = (2 * n_core) + 2 in
    let all_i = n - 2 and delta_i = n - 1 in
    let dn2 = 2 * (n_core - old_n_core) in
    let grew_now = dn2 > 0 in
    (* extend the position / known / refused indexes *)
    List.iteri (fun j s -> Hashtbl.replace inc.i_pos s (old_n_core + j)) new_states;
    if grew_now then begin
      let extend arr =
        Array.init n_core (fun k -> if k < old_n_core then arr.(k) else Hashtbl.create 8)
      in
      inc.i_known <- extend inc.i_known;
      inc.i_refused <- extend inc.i_refused
    end;
    List.iter
      (fun (src, (i : Incomplete.interaction), _) ->
        Hashtbl.replace inc.i_known.(Hashtbl.find inc.i_pos src) (in_pattern inc i) ())
      new_trans;
    List.iter
      (fun (s, inputs) ->
        Hashtbl.replace inc.i_refused.(Hashtbl.find inc.i_pos s)
          (Bitset.to_int (Universe.set_of_names inc.i_inputs_u inputs))
          ())
      new_refusals;
    (* proposition universe: new states append their first-mention props *)
    let new_props =
      List.map
        (fun s ->
          let ps = inc.i_label_of s in
          List.iter
            (fun p -> if not (List.mem p inc.i_rev_props) then inc.i_rev_props <- p :: inc.i_rev_props)
            ps;
          ps)
        new_states
    in
    let props_u = Universe.of_list (List.rev inc.i_rev_props) in
    let chaos_label = Universe.set_of_names props_u [ chaos_prop ] in
    (* names and labels: old positions are unchanged, chaos states shift *)
    let state_names = Array.make n "" in
    Array.blit inc.i_auto.Automaton.state_names 0 state_names 0 (2 * old_n_core);
    List.iteri
      (fun j s ->
        let k = old_n_core + j in
        state_names.(2 * k) <- s;
        state_names.((2 * k) + 1) <- s ^ closed_suffix)
      new_states;
    state_names.(all_i) <- s_all;
    state_names.(delta_i) <- s_delta;
    let labels = Array.make n chaos_label in
    Array.blit inc.i_labels 0 labels 0 (2 * old_n_core);
    List.iteri
      (fun j ps ->
        let k = old_n_core + j in
        let l = Universe.set_of_names props_u ps in
        labels.(2 * k) <- l;
        labels.((2 * k) + 1) <- l)
      new_props;
    (* adjacency rows: clean rows are shared (escape destinations remapped
       when the chaos states shifted — only open copies and [s_all] carry
       them), dirty rows are rebuilt exactly as [closure_unobserved] would *)
    let dirty_flag = Array.make n false in
    List.iter (fun s -> dirty_flag.(s) <- true) dirty;
    let remap_row row =
      List.map
        (fun (t : Automaton.trans) ->
          if t.dst >= old_all then { t with dst = t.dst + dn2 } else t)
        row
    in
    let rows = Array.make n [] in
    for k = 0 to old_n_core - 1 do
      if not dirty_flag.(2 * k) then
        rows.(2 * k) <- (if grew_now then remap_row inc.i_rows.(2 * k) else inc.i_rows.(2 * k));
      (* closed copies only target core copies — never remapped *)
      if not dirty_flag.((2 * k) + 1) then rows.((2 * k) + 1) <- inc.i_rows.((2 * k) + 1)
    done;
    rows.(all_i) <-
      (if grew_now then remap_row inc.i_rows.(old_all) else inc.i_rows.(old_all));
    rows.(delta_i) <- [];
    (* rebuild the dirty rows *)
    let delta_edges = ref 0 in
    let rebuild_core k =
      let name = state_names.(2 * k) in
      let rev_open = ref [] and rev_closed = ref [] in
      List.iter
        (fun (src, (i : Incomplete.interaction), dst) ->
          if src = name then begin
            let input = Universe.set_of_names inc.i_inputs_u i.in_signals in
            let output = Universe.set_of_names inc.i_outputs_u i.out_signals in
            let dk = Hashtbl.find inc.i_pos dst in
            rev_open :=
              { Automaton.input; output; dst = (2 * dk) + 1 }
              :: { Automaton.input; output; dst = 2 * dk }
              :: !rev_open;
            rev_closed :=
              { Automaton.input; output; dst = (2 * dk) + 1 }
              :: { Automaton.input; output; dst = 2 * dk }
              :: !rev_closed
          end)
        m.Incomplete.trans;
      if dirty_flag.(2 * k) then begin
        for a = 0 to inc.i_n_in - 1 do
          if not (Hashtbl.mem inc.i_known.(k) a || Hashtbl.mem inc.i_refused.(k) a) then begin
            let input = Bitset.of_int_unsafe a in
            for o = 0 to inc.i_n_out - 1 do
              let output = Bitset.of_int_unsafe o in
              rev_open :=
                { Automaton.input; output; dst = delta_i }
                :: { Automaton.input; output; dst = all_i }
                :: !rev_open
            done
          end
        done;
        rows.(2 * k) <- List.rev !rev_open;
        delta_edges := !delta_edges + List.length rows.(2 * k)
      end;
      if dirty_flag.((2 * k) + 1) then begin
        rows.((2 * k) + 1) <- List.rev !rev_closed;
        delta_edges := !delta_edges + List.length rows.((2 * k) + 1)
      end
    in
    for k = 0 to n_core - 1 do
      if dirty_flag.(2 * k) || dirty_flag.((2 * k) + 1) then rebuild_core k
    done;
    let initial =
      List.concat_map
        (fun q ->
          let k = Hashtbl.find inc.i_pos q in
          [ 2 * k; (2 * k) + 1 ])
        m.Incomplete.initial
    in
    let old_of =
      Array.init n (fun s ->
          if s = all_i then old_all
          else if s = delta_i then old_n - 1
          else if s < 2 * old_n_core then s
          else -1)
    in
    let dst_map d = if d >= old_all then d + dn2 else d in
    let a =
      Automaton.patch ~old:inc.i_auto
        ~name:("chaos(" ^ m.Incomplete.name ^ ")")
        ~props:props_u ~state_names ~labels ~trans:rows ~initial ~dirty:dirty_flag ~old_of
        ~dst_map ()
    in
    inc.i_n_core <- n_core;
    inc.i_seen_trans <- List.length m.Incomplete.trans;
    inc.i_seen_refusals <- List.length m.Incomplete.refusals;
    inc.i_rows <- rows;
    inc.i_labels <- labels;
    inc.i_auto <- a;
    inc.i_delta_edges <- !delta_edges;
    inc.i_total_delta_edges <- inc.i_total_delta_edges + !delta_edges;
    inc.i_dirty <- dirty;
    inc.i_grew <- grew_now;
    Metrics.add m_delta_edges !delta_edges;
    Metrics.incr m_updates;
    if debug then begin
      let fresh =
        closure_unobserved ~label_of:inc.i_label_of ~extra_props:inc.i_extra_props m
      in
      if not (structurally_equal a fresh && same_index a fresh) then
        failwith "Chaos.update: incremental closure diverged from the fresh construction"
    end
  end;
  (match t0 with
  | Some start_us ->
    Trace.complete ~name:"core.closure.update" ~start_us
      ~args:
        [
          ("model", Trace.Str m.Incomplete.name);
          ("delta_edges", Trace.Int inc.i_delta_edges);
          ("dirty", Trace.Int (List.length inc.i_dirty));
        ]
      ()
  | None -> ())

let closure ?label_of ?extra_props (m : Incomplete.t) =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let auto = closure_unobserved ?label_of ?extra_props m in
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
