module Bitset = Mechaml_util.Bitset
module Itbl = Mechaml_util.Itbl

type state = int

type trans = { input : Bitset.t; output : Bitset.t; dst : state }

(* Interaction interning: every distinct (A, B) transition label gets a small
   dense id.  When |I| + |O| fits a single word the key is the packed bit
   pattern, interned in a flat [Itbl] (no allocation on lookup); otherwise
   fall back to structural hashing of the pair. *)
type inter_tbl =
  | Packed of { shift : int; tbl : Itbl.t }
  | Pairs of (int * int, int) Hashtbl.t

type csr = {
  row : int array;            (* n+1 offsets into the flat arrays *)
  f_dst : int array;          (* per-state segments, stably sorted by id *)
  f_inter : int array;
  adj_inter : int array;      (* interaction id per transition, adjacency order *)
  inter_tbl : inter_tbl;
  inter_io : (Bitset.t * Bitset.t) array; (* id -> (input, output) *)
}

type escape = { excluded : int array; dsts : state list }

(* Both halves of the index are derived on first access — many automata are
   intermediate construction results (flattening, projection, products) that
   are only ever walked through their adjacency lists and never looked up by
   name.  Constructors that must report duplicate state names ([of_packed]
   without [assume_unique_names]) still build the name table eagerly, and
   [Builder.build] donates its intern table instead of rebuilding one.  The
   cells are atomic once-cells rather than [Lazy.t] because automata are
   shared across campaign worker domains: a racing force builds the same
   pure content twice and compare-and-set picks one winner, where a
   concurrent [Lazy.force] would raise. *)
type index = {
  name_cell : (string, int) Hashtbl.t option Atomic.t; (* state name -> first index *)
  csr_cell : csr option Atomic.t;
  digest_cell : string option Atomic.t; (* content digest, see [digest] *)
}

type t = {
  name : string;
  inputs : Universe.t;
  outputs : Universe.t;
  props : Universe.t;
  state_names : string array;
  labels : Bitset.t array;
  trans : trans list array;
  escapes : escape option array; (* [||] when no state has one *)
  initial : state list;
  index : index;
}

(* The id of label (a, b), or -1. *)
let inter_find it a b =
  match it with
  | Packed { shift; tbl } ->
    Itbl.find tbl ((Bitset.to_int a lsl shift) lor Bitset.to_int b) ~default:(-1)
  | Pairs tbl ->
    Option.value (Hashtbl.find_opt tbl (Bitset.to_int a, Bitset.to_int b)) ~default:(-1)

let build_name_tbl ~dup_ok ~name state_names =
  let name_tbl = Hashtbl.create (2 * Array.length state_names + 1) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem name_tbl s then begin
        if not dup_ok then
          invalid_arg
            (Printf.sprintf "Automaton.of_packed: duplicate state name %S in %s" s name)
      end
      else Hashtbl.add name_tbl s i)
    state_names;
  name_tbl

(* Writes [ts] from offset [lo] in adjacency-list order: interned ids into
   [adj], destinations into [dst].  True when the ids are non-decreasing. *)
let fill intern adj dst lo ts =
  let k = ref lo and sorted = ref true in
  List.iter
    (fun t ->
      let id = intern t.input t.output in
      if !k > lo && adj.(!k - 1) > id then sorted := false;
      adj.(!k) <- id;
      dst.(!k) <- t.dst;
      incr k)
    ts;
  !sorted

(* Heapsort of distinct ints: no comparator closure, no quadratic case. *)
let heapsort (a : int array) =
  let sift i n =
    let x = a.(i) and i = ref i and go = ref true in
    while !go do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < n && a.(c + 1) > a.(c) then c + 1 else c in
      if c < n && a.(c) > x then begin
        a.(!i) <- a.(c);
        i := c
      end
      else go := false
    done;
    a.(!i) <- x
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- top;
    sift 0 last
  done

(* Stable in-place sort of the segment [lo, hi) of [inter]/[dst] by id: a
   key packs (id, position), so keys are distinct and equal ids keep their
   adjacency order. *)
let sort_segment inter dst lo hi =
  let bits = ref 0 in
  while 1 lsl !bits < hi - lo do
    incr bits
  done;
  let bits = !bits in
  let keys = Array.init (hi - lo) (fun i -> (inter.(lo + i) lsl bits) lor i) in
  let d = Array.sub dst lo (hi - lo) in
  heapsort keys;
  Array.iteri
    (fun j key ->
      inter.(lo + j) <- key lsr bits;
      dst.(lo + j) <- d.(key land ((1 lsl bits) - 1)))
    keys

let build_csr ~in_width ~out_width ~n ~trans =
  let row = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    row.(s + 1) <- row.(s) + List.length trans.(s)
  done;
  let it =
    if in_width + out_width <= Bitset.max_width then
      Packed { shift = out_width; tbl = Itbl.create 16 }
    else Pairs (Hashtbl.create 16)
  in
  let rev_io = ref [] and next = ref 0 in
  let intern a b =
    let fresh = !next in
    let id =
      match it with
      | Packed { shift; tbl } ->
        Itbl.find_or_add tbl ((Bitset.to_int a lsl shift) lor Bitset.to_int b) fresh
      | Pairs tbl -> (
        let key = (Bitset.to_int a, Bitset.to_int b) in
        match Hashtbl.find_opt tbl key with
        | Some id -> id
        | None ->
          Hashtbl.add tbl key fresh;
          fresh)
    in
    if id = fresh then begin
      rev_io := (a, b) :: !rev_io;
      incr next
    end;
    id
  in
  let f_dst = Array.make row.(n) 0 and adj_inter = Array.make row.(n) 0 in
  let unsorted = ref [] in
  for s = 0 to n - 1 do
    if not (fill intern adj_inter f_dst row.(s) trans.(s)) then unsorted := s :: !unsorted
  done;
  (* Segments whose ids already come out non-decreasing (the common case:
     builders and products emit few, distinct labels per state) need no
     sort; when every one does, one array serves as both id views. *)
  let f_inter = if !unsorted = [] then adj_inter else Array.copy adj_inter in
  List.iter (fun s -> sort_segment f_inter f_dst row.(s) row.(s + 1)) !unsorted;
  { row; f_dst; f_inter; adj_inter; inter_tbl = it; inter_io = Array.of_list (List.rev !rev_io) }

let make_with_tbl ~name_tbl ~name ~inputs ~outputs ~props ~state_names ~labels ~trans
    ?(escapes = [||]) ~initial () =
  let index =
    { name_cell = Atomic.make name_tbl; csr_cell = Atomic.make None; digest_cell = Atomic.make None }
  in
  { name; inputs; outputs; props; state_names; labels; trans; escapes; initial; index }

let make ~dup_ok ~name ~inputs ~outputs ~props ~state_names ~labels ~trans ?escapes ~initial () =
  (* With [dup_ok] nothing can fail, so the table is derived on demand;
     otherwise build it now to surface duplicates at construction time. *)
  let name_tbl =
    if dup_ok then None else Some (build_name_tbl ~dup_ok ~name state_names)
  in
  make_with_tbl ~name_tbl ~name ~inputs ~outputs ~props ~state_names ~labels ~trans ?escapes
    ~initial ()

let num_states m = Array.length m.state_names

let name_tbl m =
  match Atomic.get m.index.name_cell with
  | Some t -> t
  | None ->
    let t = build_name_tbl ~dup_ok:true ~name:m.name m.state_names in
    ignore (Atomic.compare_and_set m.index.name_cell None (Some t));
    (match Atomic.get m.index.name_cell with Some t -> t | None -> assert false)

let csr m =
  match Atomic.get m.index.csr_cell with
  | Some c -> c
  | None ->
    let c =
      build_csr ~in_width:(Universe.size m.inputs) ~out_width:(Universe.size m.outputs)
        ~n:(num_states m) ~trans:m.trans
    in
    ignore (Atomic.compare_and_set m.index.csr_cell None (Some c));
    (match Atomic.get m.index.csr_cell with Some c -> c | None -> assert false)

(* Content only, never the index cells (forcing them must not change the
   digest), and without sharing so physically different but structurally
   equal automata — e.g. a closure updated by [Chaos.update] and a fresh
   one — marshal to the same bytes. *)
let digest m =
  match Atomic.get m.index.digest_cell with
  | Some d -> d
  | None ->
    let content =
      ( m.name,
        (Universe.to_list m.inputs, Universe.to_list m.outputs, Universe.to_list m.props),
        m.state_names,
        m.labels,
        m.trans,
        m.escapes,
        m.initial )
    in
    let d = Digest.to_hex (Digest.string (Marshal.to_string content [ Marshal.No_sharing ])) in
    ignore (Atomic.compare_and_set m.index.digest_cell None (Some d));
    d

let escape m s = if Array.length m.escapes = 0 then None else m.escapes.(s)

let has_escapes m = Array.exists Option.is_some m.escapes

let require_explicit fn m =
  if has_escapes m then
    invalid_arg (Printf.sprintf "%s: %s has escape rows; materialize them first" fn m.name)

(* Patterns are excluded by a binary search of the sorted array. *)
let escapes_input (e : escape) a =
  let lo = ref 0 and hi = ref (Array.length e.excluded) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if e.excluded.(mid) < a then lo := mid + 1 else hi := mid
  done;
  not (!lo < Array.length e.excluded && e.excluded.(!lo) = a)

(* (2^|I| - |excluded|) * 2^|O| * |dsts|, saturated at [max_int]. *)
let escape_size m (e : escape) =
  let ni = Universe.size m.inputs and no = Universe.size m.outputs in
  let mul x y = if x = 0 || y = 0 then 0 else if x > max_int / y then max_int else x * y in
  let pow2 k = if k >= Sys.int_size - 1 then max_int else 1 lsl k in
  let inputs = if ni >= Sys.int_size - 1 then max_int else pow2 ni - Array.length e.excluded in
  mul (mul inputs (pow2 no)) (List.length e.dsts)

let equal a b =
  a.name = b.name
  && Universe.to_list a.inputs = Universe.to_list b.inputs
  && Universe.to_list a.outputs = Universe.to_list b.outputs
  && Universe.to_list a.props = Universe.to_list b.props
  && a.state_names = b.state_names
  && a.labels = b.labels
  && a.trans = b.trans
  && a.escapes = b.escapes
  && a.initial = b.initial

let num_transitions m =
  Array.fold_left
    (fun acc e ->
      match e with
      | Some e ->
        let k = escape_size m e in
        if acc > max_int - k then max_int else acc + k
      | None -> acc)
    (csr m).row.(num_states m)
    m.escapes

let state_name m s =
  if s < 0 || s >= num_states m then
    invalid_arg (Printf.sprintf "Automaton.state_name: state %d out of range" s);
  m.state_names.(s)

let state_index_opt m name = Hashtbl.find_opt (name_tbl m) name

let state_index m name =
  match state_index_opt m name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Automaton.state_index: unknown state %S in %s" name m.name)

let transitions_from m s = m.trans.(s)

let label m s = m.labels.(s)

let has_prop m s p =
  match Universe.index_opt m.props p with
  | Some i -> Bitset.mem i m.labels.(s)
  | None -> false

let is_blocking m s =
  m.trans.(s) = [] && match escape m s with Some e -> escape_size m e = 0 | None -> true

let interaction_id m a b =
  match inter_find (csr m).inter_tbl a b with -1 -> None | id -> Some id

let num_interactions m = Array.length (csr m).inter_io

let interaction_io m id = (csr m).inter_io.(id)

(* Lowest k in [lo, hi) with f_inter.(k) >= id. *)
let lower_bound f_inter lo hi id =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if f_inter.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

let escape_dsts m s a =
  match escape m s with
  | Some e when escapes_input e (Bitset.to_int a) -> e.dsts
  | _ -> []

(* An unknown label's id, -1, matches no explicit transition. *)
let accepts m s a b =
  let ix = csr m in
  let id = inter_find ix.inter_tbl a b in
  let k = lower_bound ix.f_inter ix.row.(s) ix.row.(s + 1) id in
  (k < ix.row.(s + 1) && ix.f_inter.(k) = id) || escape_dsts m s a <> []

let successors m s a b =
  let ix = csr m in
  let id = inter_find ix.inter_tbl a b and hi = ix.row.(s + 1) in
  let rec collect k = if k < hi && ix.f_inter.(k) = id then ix.f_dst.(k) :: collect (k + 1) else [] in
  collect (lower_bound ix.f_inter ix.row.(s) hi id) @ escape_dsts m s a

(* A non-empty escape repeats a label when it has several destinations or
   covers an explicit transition's input, and an input also when there are
   outputs to vary. *)
let escape_repeats m ~per_input s =
  match escape m s with
  | Some e when escape_size m e > 0 ->
    List.length e.dsts > 1
    || (per_input && Universe.size m.outputs > 0)
    || List.exists (fun t -> escapes_input e (Bitset.to_int t.input)) m.trans.(s)
  | _ -> false

let no_escape_repeats m ~per_input =
  not (List.exists (escape_repeats m ~per_input) (List.init (num_states m) Fun.id))

let deterministic m =
  let ix = csr m in
  let ok = ref true in
  for s = 0 to num_states m - 1 do
    for k = ix.row.(s) to ix.row.(s + 1) - 2 do
      if ix.f_inter.(k) = ix.f_inter.(k + 1) then ok := false
    done
  done;
  !ok && no_escape_repeats m ~per_input:false

let input_deterministic m =
  let ok = ref true in
  Array.iter
    (fun ts ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun t ->
          let key = Bitset.to_int t.input in
          if Hashtbl.mem seen key then ok := false else Hashtbl.add seen key ())
        ts)
    m.trans;
  !ok && no_escape_repeats m ~per_input:true

let composable a b = Universe.disjoint a.inputs b.inputs && Universe.disjoint a.outputs b.outputs

let orthogonal a b =
  composable a b && Universe.disjoint a.inputs b.outputs && Universe.disjoint a.outputs b.inputs

(* The record copies below change content the digest covers but keep the
   transition relation, so they share the derived index halves and get a
   fresh digest cell. *)
let redigested m = { m.index with digest_cell = Atomic.make None }

let rename m name = { m with name; index = redigested m }

let relabel m ~props f =
  { m with props; labels = Array.init (num_states m) f; index = redigested m }

let dedup_trans ts =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      let key = (Bitset.to_int t.input, Bitset.to_int t.output, t.dst) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ts

let restrict m ~inputs ~outputs ~props =
  require_explicit "Automaton.restrict" m;
  let project_trans t =
    {
      input = Universe.restrict m.inputs ~to_:inputs t.input;
      output = Universe.restrict m.outputs ~to_:outputs t.output;
      dst = t.dst;
    }
  in
  make ~dup_ok:true ~name:m.name ~inputs ~outputs ~props ~state_names:m.state_names
    ~labels:(Array.map (fun l -> Universe.restrict m.props ~to_:props l) m.labels)
    ~trans:(Array.map (fun ts -> dedup_trans (List.map project_trans ts)) m.trans)
    ~initial:m.initial ()

let map_states m ~f =
  let state_names = Array.init (num_states m) f in
  (* transitions are untouched: the CSR carries over and the name lookup
     table is rederived on demand from the new names *)
  { m with state_names; index = { (redigested m) with name_cell = Atomic.make None } }

let map_signals m ~inputs ~outputs =
  {
    m with
    inputs = Universe.of_list (List.map inputs (Universe.to_list m.inputs));
    outputs = Universe.of_list (List.map outputs (Universe.to_list m.outputs));
    index = redigested m;
  }

(* Every array is [n] long, the initial set is non-empty and in range, and
   so are the destinations; an escape's excluded patterns are input
   patterns, strictly ascending. *)
let of_packed ?(assume_unique_names = false) ~name ~inputs ~outputs ~props ~state_names ~labels
    ~trans ?(escapes = [||]) ~initial () =
  let n = Array.length state_names in
  let fail fmt =
    Printf.ksprintf
      (fun m -> invalid_arg (Printf.sprintf "Automaton.of_packed: %s in %s" m name))
      fmt
  in
  if Array.length labels <> n || Array.length trans <> n then fail "array lengths disagree";
  if Array.length escapes <> 0 && Array.length escapes <> n then fail "array lengths disagree";
  if initial = [] then fail "no initial state";
  let state what q = if q < 0 || q >= n then fail "%s %d out of range" what q in
  List.iter (state "initial state") initial;
  Array.iter (List.iter (fun t -> state "destination" t.dst)) trans;
  let width = Universe.size inputs in
  Array.iter
    (function
      | None -> ()
      | Some e ->
        List.iter (state "escape destination") e.dsts;
        Array.iteri
          (fun i p ->
            if p < 0 || (width < Sys.int_size - 1 && p >= 1 lsl width) then
              fail "excluded input pattern %d out of range" p;
            if i > 0 && e.excluded.(i - 1) >= p then fail "excluded patterns not ascending")
          e.excluded)
    escapes;
  let escapes = if Array.exists Option.is_some escapes then escapes else [||] in
  make ~dup_ok:assume_unique_names ~name ~inputs ~outputs ~props ~state_names ~labels ~trans
    ~escapes ~initial ()

module Csr = struct
  let row m = (csr m).row

  let dst m = (csr m).f_dst

  let inter m = (csr m).f_inter

  let adj_inter m = (csr m).adj_inter
end

module Builder = struct
  (* the enclosing automaton type is referenced via the result of [build] *)

  type b = {
    b_name : string;
    b_inputs : Universe.t;
    b_outputs : Universe.t;
    mutable b_props : string list; (* reverse order of first mention *)
    names : (string, int) Hashtbl.t;
    mutable rev_states : string list;
    mutable n : int;
    state_props : (int, string list ref) Hashtbl.t;
    mutable rev_trans : (int * string list * string list * int) list;
    mutable initial : string list;
    declared_props : string list;
  }

  type t = b

  let create ~name ~inputs ~outputs ?(props = []) () =
    {
      b_name = name;
      b_inputs = Universe.of_list inputs;
      b_outputs = Universe.of_list outputs;
      b_props = List.rev props;
      names = Hashtbl.create 16;
      rev_states = [];
      n = 0;
      state_props = Hashtbl.create 16;
      rev_trans = [];
      initial = [];
      declared_props = props;
    }

  let intern_state b name =
    match Hashtbl.find_opt b.names name with
    | Some i -> i
    | None ->
      let i = b.n in
      Hashtbl.add b.names name i;
      b.rev_states <- name :: b.rev_states;
      b.n <- b.n + 1;
      Hashtbl.add b.state_props i (ref []);
      i

  let note_prop b p = if not (List.mem p b.b_props) then b.b_props <- p :: b.b_props

  let add_state b ?(props = []) name =
    let i = intern_state b name in
    let cell = Hashtbl.find b.state_props i in
    List.iter
      (fun p ->
        note_prop b p;
        if not (List.mem p !cell) then cell := p :: !cell)
      props;
    i

  let add_trans b ~src ?(inputs = []) ?(outputs = []) ~dst () =
    let s = intern_state b src in
    let d = intern_state b dst in
    (* Validate signal names eagerly so mistakes surface at model-building
       time rather than during composition. *)
    List.iter (fun i -> ignore (Universe.index b.b_inputs i)) inputs;
    List.iter (fun o -> ignore (Universe.index b.b_outputs o)) outputs;
    b.rev_trans <- (s, inputs, outputs, d) :: b.rev_trans

  let set_initial b names = b.initial <- names

  let build b =
    if b.initial = [] then
      invalid_arg (Printf.sprintf "Automaton.Builder.build: %s has no initial state" b.b_name);
    let props = Universe.of_list (List.rev b.b_props) in
    let state_names = Array.of_list (List.rev b.rev_states) in
    let labels =
      Array.init b.n (fun i ->
          Universe.set_of_names props !(Hashtbl.find b.state_props i))
    in
    let trans = Array.make (max b.n 1) [] in
    List.iter
      (fun (s, inputs, outputs, d) ->
        let t =
          {
            input = Universe.set_of_names b.b_inputs inputs;
            output = Universe.set_of_names b.b_outputs outputs;
            dst = d;
          }
        in
        trans.(s) <- t :: trans.(s))
      b.rev_trans;
    let initial =
      List.map
        (fun n ->
          match Hashtbl.find_opt b.names n with
          | Some i -> i
          | None -> invalid_arg (Printf.sprintf "Builder.build: unknown initial state %S" n))
        b.initial
    in
    (* [b.names] maps exactly the interned state names to their indices, so a
       copy (no rehashing) doubles as the automaton's lookup table —
       uniqueness is guaranteed by interning, no validation needed.  Copied
       because the builder stays usable after [build]. *)
    make_with_tbl ~name_tbl:(Some (Hashtbl.copy b.names)) ~name:b.b_name ~inputs:b.b_inputs
      ~outputs:b.b_outputs ~props ~state_names ~labels
      ~trans:(if b.n = 0 then [||] else trans)
      ~initial ()
end

let pp_io m ppf (a, b) =
  Format.fprintf ppf "%a/%a" (Universe.pp_set m.inputs) a (Universe.pp_set m.outputs) b

let pp ppf m =
  Format.fprintf ppf "@[<v>automaton %s@," m.name;
  Format.fprintf ppf "  inputs:  %s@," (String.concat ", " (Universe.to_list m.inputs));
  Format.fprintf ppf "  outputs: %s@," (String.concat ", " (Universe.to_list m.outputs));
  Format.fprintf ppf "  initial: %s@,"
    (String.concat ", " (List.map (fun s -> m.state_names.(s)) m.initial));
  Array.iteri
    (fun s ts ->
      let lbl = Universe.names_of_set m.props m.labels.(s) in
      Format.fprintf ppf "  state %s%s@," m.state_names.(s)
        (if lbl = [] then "" else " [" ^ String.concat ", " lbl ^ "]");
      List.iter
        (fun t ->
          Format.fprintf ppf "    %a -> %s@," (pp_io m) (t.input, t.output)
            m.state_names.(t.dst))
        ts;
      match escape m s with
      | Some e ->
        Format.fprintf ppf "    * except %d input pattern(s) -> %s@," (Array.length e.excluded)
          (String.concat ", " (List.map (fun d -> m.state_names.(d)) e.dsts))
      | None -> ())
    m.trans;
  Format.fprintf ppf "@]"
