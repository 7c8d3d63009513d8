module Bitvec = Mechaml_util.Bitvec
module Shard = Mechaml_ts.Shard
module Metrics = Mechaml_obs.Metrics

let m_pops =
  Metrics.counter "mc_worklist_pops_total"
    ~help:
      "States popped from the EF/EG/AU/EU fixpoint worklists: materialized, in-process sharded \
       and (in each worker process) distributed fixpoints."

type space = {
  n : int;
  flat : bool;  (* one block, local id = global id, no maps *)
  count : int;
  view : int -> Shard.view;
  owner : int array;
  local : int array;
  sizes : int array;
  owned : bool array;
  all_owned : bool;
  blocking : Bitvec.t;
}

let flat ~blocking ~row ~dst ~prow ~psrc =
  let n = Bitvec.length blocking in
  let v = { Shard.members = [||]; row; dst; prow; psrc } in
  {
    n;
    flat = true;
    count = 1;
    view = (fun _ -> v);
    owner = [||];
    local = [||];
    sizes = [| n |];
    owned = [| true |];
    all_owned = true;
    blocking;
  }

let blocks ~blocking ~owner ~local ~sizes ~owned view =
  {
    n = Array.length owner;
    flat = false;
    count = Array.length sizes;
    view;
    owner;
    local;
    sizes;
    owned;
    all_owned = Array.for_all Fun.id owned;
    blocking;
  }

let[@inline] owns sp g = sp.all_owned || sp.owned.(sp.owner.(g))

(* [f v m g] for every state of every owned block: local index [m], global
   id [g]. *)
let iter_owned sp f =
  for k = 0 to sp.count - 1 do
    if sp.owned.(k) then begin
      let v = sp.view k in
      if sp.flat then
        for m = 0 to sp.n - 1 do
          f v m m
        done
      else Array.iteri (f v) v.Shard.members
    end
  done

let agg sp ~forall x =
  let out = Bitvec.create sp.n in
  iter_owned sp (fun v m g ->
      let e = ref v.Shard.row.(m) and hi = v.Shard.row.(m + 1) in
      while !e < hi && Bitvec.unsafe_get x v.Shard.dst.(!e) = forall do
        incr e
      done;
      if !e >= hi = forall then Bitvec.unsafe_set out g);
  out

(* Every fixpoint pushes each state at most once, so the per-block stacks
   are plain arrays sized by the block. *)
type run = {
  sp : space;
  kind : Eval.fix;
  out : Bitvec.t;
  guard : Bitvec.t;
  cnt : int array;
      (* global-indexed, owned states only — EG: successor edges still in
         the set; AU: successor edges outside it *)
  stacks : int array array;
  sps : int array;
  emit : int -> unit;
  mutable cur : int;  (* block being drained; -1 while seeding or feeding *)
  mutable boundary : int;
}

let[@inline] push r g =
  if r.sp.flat then begin
    r.stacks.(0).(r.sps.(0)) <- g;
    r.sps.(0) <- r.sps.(0) + 1
  end
  else begin
    let b = r.sp.owner.(g) in
    if r.cur >= 0 && b <> r.cur then r.boundary <- r.boundary + 1;
    r.stacks.(b).(r.sps.(b)) <- r.sp.local.(g);
    r.sps.(b) <- r.sps.(b) + 1
  end

(* AU: a state joins once it is a [guard] state, not blocking, and no
   successor edge leaves the set. *)
let[@inline] candidate r g =
  (not (Bitvec.unsafe_get r.out g))
  && Bitvec.unsafe_get r.guard g
  && (not (Bitvec.unsafe_get r.sp.blocking g))
  && r.cnt.(g) = 0

(* The one relaxation step, applied to each predecessor [p] of a popped
   state and to each boundary item.  A foreign [p] is emitted to its owner:
   EF/EU mark it here first so it is emitted once; EG/AU emit one
   decrement event per edge. *)
let[@inline] relax r p =
  match r.kind with
  | Ef | Eu ->
    if (not (Bitvec.unsafe_get r.out p)) && Bitvec.unsafe_get r.guard p then begin
      Bitvec.unsafe_set r.out p;
      if owns r.sp p then push r p else r.emit p
    end
  | Eg ->
    if Bitvec.unsafe_get r.out p then
      if owns r.sp p then begin
        r.cnt.(p) <- r.cnt.(p) - 1;
        if r.cnt.(p) = 0 then push r p
      end
      else r.emit p
  | Au ->
    if owns r.sp p then begin
      r.cnt.(p) <- r.cnt.(p) - 1;
      if candidate r p then begin
        Bitvec.unsafe_set r.out p;
        push r p
      end
    end
    else r.emit p

let start sp (kind : Eval.fix) ~init ~guard ~emit =
  let out = Bitvec.copy init in
  let r =
    {
      sp;
      kind;
      out;
      guard = (match guard with Some f -> f | None -> Bitvec.create_full sp.n);
      cnt = (match kind with Eg | Au -> Array.make (max sp.n 1) 0 | Ef | Eu -> [||]);
      stacks =
        Array.init sp.count (fun k ->
            if sp.owned.(k) then Array.make (max sp.sizes.(k) 1) 0 else [||]);
      sps = Array.make sp.count 0;
      emit;
      cur = -1;
      boundary = 0;
    }
  in
  let count_succ v m ~inside =
    let c = ref 0 in
    for e = v.Shard.row.(m) to v.Shard.row.(m + 1) - 1 do
      if Bitvec.unsafe_get out v.Shard.dst.(e) = inside then incr c
    done;
    !c
  in
  (match kind with
  | Ef | Eu -> Bitvec.iter_true (fun g -> if owns sp g then push r g) out
  | Eg ->
    (* EG over maximal runs: a member with no successor left in the set
       goes, unless it is blocking *)
    iter_owned sp (fun v m g ->
        if Bitvec.unsafe_get out g then begin
          r.cnt.(g) <- count_succ v m ~inside:true;
          if r.cnt.(g) = 0 && not (Bitvec.unsafe_get sp.blocking g) then push r g
        end)
  | Au ->
    (* two passes: every count is taken against the unmodified [init]
       before any candidate joins, so no edge is counted twice *)
    iter_owned sp (fun v m g -> r.cnt.(g) <- count_succ v m ~inside:false);
    for g = 0 to sp.n - 1 do
      if owns sp g && candidate r g then begin
        Bitvec.unsafe_set out g;
        push r g
      end
    done);
  r

let feed r g =
  if not (owns r.sp g) then invalid_arg "Worklist.feed: state of a foreign block";
  relax r g

let pop r (v : Shard.view) m =
  match r.kind with
  | Ef | Eu | Au ->
    for e = v.prow.(m) to v.prow.(m + 1) - 1 do
      relax r v.psrc.(e)
    done
  | Eg ->
    let g = if r.sp.flat then m else v.members.(m) in
    if Bitvec.unsafe_get r.out g then begin
      Bitvec.unsafe_clear r.out g;
      for e = v.prow.(m) to v.prow.(m + 1) - 1 do
        relax r v.psrc.(e)
      done
    end

let round r =
  let popped = ref 0 in
  for k = 0 to r.sp.count - 1 do
    if r.sps.(k) > 0 then begin
      let v = r.sp.view k and stack = r.stacks.(k) in
      r.cur <- k;
      while r.sps.(k) > 0 do
        r.sps.(k) <- r.sps.(k) - 1;
        incr popped;
        pop r v stack.(r.sps.(k))
      done
    end
  done;
  r.cur <- -1;
  Metrics.add m_pops !popped;
  !popped

let boundary r = r.boundary

let result r = r.out

let fixpoint sp kind ~init ~guard =
  let r =
    start sp kind ~init ~guard ~emit:(fun _ -> invalid_arg "Worklist.fixpoint: foreign block")
  in
  while round r > 0 do
    ()
  done;
  r.out
