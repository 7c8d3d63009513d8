module Bitset = Mechaml_util.Bitset
module Itbl = Mechaml_util.Itbl
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_product_states =
  Metrics.histogram "ts_product_states"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e6 13)
    ~help:"Reachable states per parallel product construction."

let m_product_transitions =
  Metrics.histogram "ts_product_transitions"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e7 15)
    ~help:"Transitions per parallel product construction."

type product = {
  auto : Automaton.t;
  left : Automaton.t;
  right : Automaton.t;
  pairs : (Automaton.state * Automaton.state) array;
}

(* Communication constraint of Definition 3, evaluated on the shared signals:
   what one side consumes from the other must be exactly what the other
   produces on the connected signals.  For closed compositions (every output
   of one operand is an input of the other, as in context ∥ closure) this is
   literally the paper's (A ∩ O') = B' and (A' ∩ O) = B; for open
   compositions it lets unconnected signals pass through to the
   environment. *)

let cross_map from_u to_u =
  Array.init (Universe.size from_u) (fun i ->
      match Universe.index_opt to_u (Universe.name from_u i) with
      | Some j -> j
      | None -> -1)

let mask_of cross =
  Array.to_list cross
  |> List.mapi (fun i j -> (i, j))
  |> List.filter_map (fun (i, j) -> if j >= 0 then Some i else None)
  |> Bitset.of_list

let translate cross s = Bitset.fold (fun i acc -> Bitset.add cross.(i) acc) s Bitset.empty

(* The join kernel.  Every transition projects onto its shared-signal
   footprint, a pair of sets in common index spaces: [A ∩ O'] in right-output
   indices and [B ∩ I'] in left-output indices on the left, [B' ∩ I] and
   [A' ∩ O] in the same spaces on the right.  Two transitions compose iff
   their footprints are equal.  Footprints depend only on the label, so they
   are computed once per interned interaction id, and each left id is mapped
   to the one right id with its footprint.  A visit then binary-searches
   that id's run in the right row of the sorted CSR view: segments are
   stably sorted by id, so the run lists the partners in adjacency order and
   the joint moves come out in the nested scan's order (left adjacency
   outer, right adjacency inner).

   Two cases fall back to a scan of the right row in adjacency order: a
   footprint shared by several right ids (open compositions, where
   unconnected signals tell labels apart), and operands whose combined
   signals do not fit one word, where neither footprint keys nor combined
   labels pack.

   A right escape follows the explicit partners.  A footprint fixes a
   partner's connected signals — the right input pattern [e_in] and the
   right output pattern [lk1] — so its escape partners are those patterns
   extended by every subset of the free (unconnected) right inputs and
   outputs, ascending, minus excluded inputs: one membership test when the
   composition is closed.  Everything is computed up front, so a kernel is
   read-only afterwards and can be shared across domains. *)
type join = {
  j_left : Automaton.t;
  j_right : Automaton.t;
  packed : bool;  (* combined inputs and outputs each fit one word *)
  in_shift : int;
  out_shift : int;
  partner : int array;  (* left id -> right id, [none] or [scan] *)
  lk1 : int array;  (* left id -> footprint in right-output indices *)
  lk2 : int array;  (* left id -> footprint in left-output indices *)
  rk1 : int array;
  rk2 : int array;
  c_in : int array;  (* left id -> combined input with its partner *)
  c_out : int array;
  r_in : int array;  (* right id -> input shifted past the left's (packed only) *)
  r_out : int array;
  l_row : int array;
  l_adj : int array;
  r_row : int array;
  r_inter : int array;
  r_dst : int array;
  r_adj : int array;
  r_esc : Automaton.escape option array;  (* [||] when the right has no escapes *)
  e_in : int array;  (* left id -> its partners' connected right inputs *)
  free_in : int;  (* right inputs no left output drives *)
  free_out : int;  (* right outputs no left input reads *)
}

let none = -1
let scan = -2

let join (left : Automaton.t) (right : Automaton.t) =
  if not (Automaton.composable left right) then
    invalid_arg
      (Printf.sprintf "Compose.join: %s and %s are not composable" left.Automaton.name
         right.Automaton.name);
  if Automaton.has_escapes left then
    invalid_arg
      (Printf.sprintf "Compose.join: the left operand %s has escapes" left.Automaton.name);
  let li_ro = cross_map left.inputs right.outputs in
  let ri_lo = cross_map right.inputs left.outputs in
  let lo_ri = cross_map left.outputs right.inputs in
  let mask_li = mask_of li_ro
  and mask_lo = mask_of lo_ri
  and mask_ri = mask_of ri_lo
  and mask_ro = mask_of (cross_map right.outputs left.inputs) in
  let in_shift = Universe.size left.Automaton.inputs in
  let out_shift = Universe.size left.Automaton.outputs in
  let packed =
    in_shift + Universe.size right.Automaton.inputs <= Bitset.max_width
    && out_shift + Universe.size right.Automaton.outputs <= Bitset.max_width
  in
  let nl = Automaton.num_interactions left and nr = Automaton.num_interactions right in
  let lk1 = Array.make nl 0 and lk2 = Array.make nl 0 in
  for id = 0 to nl - 1 do
    let a, b = Automaton.interaction_io left id in
    lk1.(id) <- Bitset.to_int (translate li_ro (Bitset.inter a mask_li));
    lk2.(id) <- Bitset.to_int (Bitset.inter b mask_lo)
  done;
  let rk1 = Array.make nr 0 and rk2 = Array.make nr 0 in
  let r_in = Array.make (if packed then nr else 0) 0 in
  let r_out = Array.make (if packed then nr else 0) 0 in
  for id = 0 to nr - 1 do
    let a, b = Automaton.interaction_io right id in
    rk1.(id) <- Bitset.to_int (Bitset.inter b mask_ro);
    rk2.(id) <- Bitset.to_int (translate ri_lo (Bitset.inter a mask_ri));
    if packed then begin
      r_in.(id) <- Bitset.to_int a lsl in_shift;
      r_out.(id) <- Bitset.to_int b lsl out_shift
    end
  done;
  let escaping = Automaton.has_escapes right in
  let e_in =
    if escaping then
      Array.map (fun k2 -> Bitset.to_int (translate lo_ri (Bitset.of_int_unsafe k2))) lk2
    else [||]
  in
  let free mask u = Bitset.to_int (Bitset.diff (Bitset.full (Universe.size u)) mask) in
  let partner = Array.make nl scan in
  let c_in = Array.make nl 0 and c_out = Array.make nl 0 in
  if packed then begin
    (* key = footprint packed into one word: right-output part above the
       left-output part; [scan] marks a key several right ids share *)
    let key k1 k2 = (k1 lsl out_shift) lor k2 in
    let first = Itbl.create nr in
    let shared = Array.make nr false in
    for id = 0 to nr - 1 do
      let f = Itbl.find_or_add first (key rk1.(id) rk2.(id)) id in
      if f <> id then shared.(f) <- true
    done;
    for id = 0 to nl - 1 do
      let f = Itbl.find first (key lk1.(id) lk2.(id)) ~default:none in
      if f = none then partner.(id) <- none
      else if not shared.(f) then begin
        partner.(id) <- f;
        let a, b = Automaton.interaction_io left id in
        c_in.(id) <- Bitset.to_int a lor r_in.(f);
        c_out.(id) <- Bitset.to_int b lor r_out.(f)
      end
    done
  end;
  {
    j_left = left;
    j_right = right;
    packed;
    in_shift;
    out_shift;
    partner;
    lk1;
    lk2;
    rk1;
    rk2;
    c_in;
    c_out;
    r_in;
    r_out;
    l_row = Automaton.Csr.row left;
    l_adj = Automaton.Csr.adj_inter left;
    r_row = Automaton.Csr.row right;
    r_inter = Automaton.Csr.inter right;
    r_dst = Automaton.Csr.dst right;
    r_adj = Automaton.Csr.adj_inter right;
    r_esc = (if escaping then right.Automaton.escapes else [||]);
    e_in;
    free_in = free mask_ri right.Automaton.inputs;
    free_out = free mask_ro right.Automaton.outputs;
  }

(* A left label's half combined with right pattern [a'] (inputs) or [b']
   (outputs), as [parallel]'s universes lay them out. *)
let join_in j (t : Automaton.trans) a' =
  if j.packed then Bitset.of_int_unsafe (Bitset.to_int t.input lor (a' lsl j.in_shift))
  else Bitset.union t.input (Bitset.shift j.in_shift (Bitset.of_int_unsafe a'))

let join_out j (t : Automaton.trans) b' =
  if j.packed then Bitset.of_int_unsafe (Bitset.to_int t.output lor (b' lsl j.out_shift))
  else Bitset.union t.output (Bitset.shift j.out_shift (Bitset.of_int_unsafe b'))

let rec emit_dsts emit input output l_dst count = function
  | [] -> count
  | d :: rest ->
    emit input output l_dst d;
    emit_dsts emit input output l_dst (count + 1) rest

(* Escape [e]'s partners of left transition [t] (id [lid]): every subset of
   the free right inputs, then of the free right outputs, ascending, on top
   of the footprint's connected patterns — the materialized row's order.
   Without free signals that is one membership test. *)
let escape_moves j (e : Automaton.escape) (t : Automaton.trans) lid emit =
  let fi = j.free_in and fo = j.free_out in
  let base_in = Array.unsafe_get j.e_in lid and base_out = Array.unsafe_get j.lk1 lid in
  if fi = 0 && fo = 0 then
    if Automaton.escapes_input e base_in then
      emit_dsts emit (join_in j t base_in) (join_out j t base_out) t.dst 0 e.dsts
    else 0
  else begin
    let count = ref 0 and si = ref 0 and more_in = ref true in
    while !more_in do
      let a = base_in lor !si in
      if Automaton.escapes_input e a then begin
        let input = join_in j t a in
        let so = ref 0 and more_out = ref true in
        while !more_out do
          count := emit_dsts emit input (join_out j t (base_out lor !so)) t.dst !count e.dsts;
          if !so = fo then more_out := false else so := (!so - fo) land fo
        done
      end;
      if !si = fi then more_in := false else si := (!si - fi) land fi
    done;
    !count
  end

(* The right row's transitions whose footprint equals left id [lid]'s, in
   adjacency order. *)
let scan_row j (t : Automaton.trans) lid s' emit =
  let count = ref 0 in
  let k = ref j.r_row.(s') in
  let k1 = j.lk1.(lid) and k2 = j.lk2.(lid) in
  List.iter
    (fun (t' : Automaton.trans) ->
      let rid = Array.unsafe_get j.r_adj !k in
      incr k;
      if Array.unsafe_get j.rk1 rid = k1 && Array.unsafe_get j.rk2 rid = k2 then begin
        incr count;
        if j.packed then
          emit
            (Bitset.union t.input (Bitset.of_int_unsafe j.r_in.(rid)))
            (Bitset.union t.output (Bitset.of_int_unsafe j.r_out.(rid)))
            t.dst t'.dst
        else
          emit
            (Bitset.union t.input (Bitset.shift j.in_shift t'.input))
            (Bitset.union t.output (Bitset.shift j.out_shift t'.output))
            t.dst t'.dst
      end)
    (Automaton.transitions_from j.j_right s');
  !count

let moves j s s' emit =
  let lo = Array.unsafe_get j.r_row s' and hi = Array.unsafe_get j.r_row (s' + 1) in
  let esc = if Array.length j.r_esc = 0 then None else Array.unsafe_get j.r_esc s' in
  if lo = hi && Option.is_none esc then 0
  else begin
    let count = ref 0 in
    let rec go k = function
      | [] -> ()
      | (t : Automaton.trans) :: rest ->
        let lid = Array.unsafe_get j.l_adj k in
        let rid = Array.unsafe_get j.partner lid in
        if rid >= 0 then begin
          (* lowest position in the row with id >= rid *)
          let a = ref lo and b = ref hi in
          while !a < !b do
            let mid = (!a + !b) lsr 1 in
            if Array.unsafe_get j.r_inter mid < rid then a := mid + 1 else b := mid
          done;
          let i = ref !a in
          if !i < hi && Array.unsafe_get j.r_inter !i = rid then begin
            let input = Bitset.of_int_unsafe (Array.unsafe_get j.c_in lid)
            and output = Bitset.of_int_unsafe (Array.unsafe_get j.c_out lid) in
            while !i < hi && Array.unsafe_get j.r_inter !i = rid do
              incr count;
              emit input output t.dst (Array.unsafe_get j.r_dst !i);
              incr i
            done
          end
        end
        else if rid = scan then count := !count + scan_row j t lid s' emit;
        (match esc with Some e -> count := !count + escape_moves j e t lid emit | None -> ());
        go (k + 1) rest
    in
    go (Array.unsafe_get j.l_row s) (Automaton.transitions_from j.j_left s);
    !count
  end

(* The product construction: a BFS over state pairs, expanded through the
   kernel.  Everything observable about the product (state numbering,
   names, labels, adjacency order) is fixed by the order of the emitted
   moves. *)
let bfs_product (left : Automaton.t) (right : Automaton.t) =
  if not (Automaton.composable left right) then
    invalid_arg
      (Printf.sprintf "Compose.parallel: %s and %s are not composable" left.Automaton.name
         right.Automaton.name);
  if not (Universe.disjoint left.Automaton.props right.Automaton.props) then
    invalid_arg "Compose.parallel: proposition universes overlap";
  let inputs = Universe.union left.inputs right.inputs in
  let outputs = Universe.union left.outputs right.outputs in
  let props = Universe.union left.props right.props in
  let lp_size = Universe.size left.props in
  let kernel = join left right in
  (* Pairs pack into one int key (products beyond 2^62 states are unbuildable
     anyway), interned through a flat table; per-state data lives in
     growable arrays, and because ids are handed out in discovery order a
     cursor over those arrays doubles as the BFS queue.  The table starts
     minimal: most products are small, and a presized table's arrays would
     be major-heap allocations on every composition, which raised the
     daemon's peak RSS. *)
  let nr = Automaton.num_states right in
  let table = Itbl.create 0 in
  let cap = ref 16 in
  let names = ref (Array.make !cap "") in
  let labs = ref (Array.make !cap Bitset.empty) in
  let pl = ref (Array.make !cap 0) in
  let pr = ref (Array.make !cap 0) in
  let outs = ref (Array.make !cap []) in
  let n = ref 0 in
  let grow () =
    let c = 2 * !cap in
    let g a z =
      let b = Array.make c z in
      Array.blit !a 0 b 0 !n;
      a := b
    in
    g names "";
    g labs Bitset.empty;
    g pl 0;
    g pr 0;
    g outs [];
    cap := c
  in
  let intern s s' =
    let fresh = !n in
    let id = Itbl.find_or_add table ((s * nr) + s') fresh in
    if id = fresh then begin
      if id = !cap then grow ();
      !names.(id) <- Automaton.state_name left s ^ "," ^ Automaton.state_name right s';
      (* the union universe fits one word, so the shift cannot overflow *)
      !labs.(id) <-
        Bitset.union (Automaton.label left s)
          (Bitset.of_int_unsafe (Bitset.to_int (Automaton.label right s') lsl lp_size));
      !pl.(id) <- s;
      !pr.(id) <- s';
      n := id + 1
    end;
    id
  in
  let initial =
    List.concat_map (fun q -> List.map (fun q' -> intern q q') right.initial) left.initial
  in
  let cursor = ref 0 in
  while !cursor < !n do
    let id = !cursor in
    incr cursor;
    let acc = ref [] in
    ignore
      (moves kernel !pl.(id) !pr.(id) (fun input output l_dst r_dst ->
           let dst = intern l_dst r_dst in
           acc := { Automaton.input; output; dst } :: !acc));
    !outs.(id) <- List.rev !acc
  done;
  let count = !n in
  let state_names = Array.sub !names 0 count in
  let labels = Array.sub !labs 0 count in
  let pairs = Array.init count (fun i -> (!pl.(i), !pr.(i))) in
  let trans = Array.sub !outs 0 count in
  (* Every pair is its own state, numbered as [Shard.explore] numbers it,
     even when operand names containing ',' make two "l,r" names collide;
     [state_index] then finds the first. *)
  let auto =
    Automaton.of_packed ~assume_unique_names:true
      ~name:(left.Automaton.name ^ "||" ^ right.Automaton.name)
      ~inputs ~outputs ~props ~state_names ~labels ~trans ~initial ()
  in
  { auto; left; right; pairs }

let record ~start_us ~left ~right ~states ~transitions =
  (* the transition count may walk every adjacency list — worth it for the
     size histograms, too slow for the per-span fast path when only tracing
     is on *)
  if Metrics.enabled () then begin
    Metrics.observe m_product_states (float_of_int states);
    Metrics.observe m_product_transitions (float_of_int (transitions ()))
  end;
  match start_us with
  | Some start_us ->
    Trace.complete ~name:"ts.compose" ~start_us
      ~args:
        [
          ("left", Trace.Str left.Automaton.name);
          ("right", Trace.Str right.Automaton.name);
          ("states", Trace.Int states);
        ]
      ()
  | None -> ()

let parallel left right =
  let start_us = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let p = bfs_product left right in
  record ~start_us ~left ~right ~states:(Automaton.num_states p.auto) ~transitions:(fun () ->
      Automaton.num_transitions p.auto);
  p

let parallel_many = function
  | [] -> invalid_arg "Compose.parallel_many: empty list"
  | [ m ] -> m
  | m :: rest -> List.fold_left (fun acc m' -> (parallel acc m').auto) m rest

let left_state p s = fst p.pairs.(s)

let right_state p s = snd p.pairs.(s)

(* Product signals are the left operand's followed by the right's, the
   layout of [bfs_product] and of [Shard.explore]. *)
let project_pairs side ~(left : Automaton.t) ~(right : Automaton.t) ~pair (r : Run.t) =
  let target = match side with `Left -> left | `Right -> right in
  let pick = match side with `Left -> fst | `Right -> snd in
  let inputs = Universe.union left.inputs right.inputs
  and outputs = Universe.union left.outputs right.outputs in
  let states = List.map (fun s -> pick (pair s)) (Run.state_sequence r) in
  let io =
    List.map
      (fun (a, b) ->
        ( Universe.restrict inputs ~to_:target.Automaton.inputs a,
          Universe.restrict outputs ~to_:target.Automaton.outputs b ))
      (Run.trace r)
  in
  if r.Run.deadlock then Run.deadlocking ~states ~io else Run.regular ~states ~io

let project side (p : product) r =
  project_pairs side ~left:p.left ~right:p.right ~pair:(fun s -> p.pairs.(s)) r

let project_left p r = project `Left p r

let project_right p r = project `Right p r
