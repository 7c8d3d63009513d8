module Ctl = Mechaml_logic.Ctl
module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Metrics = Mechaml_obs.Metrics

let m_fixpoint_sweeps =
  Metrics.counter "mc_fixpoint_sweeps_total"
    ~help:
      "Whole-state-space passes by the fixpoint engine: one per unbounded fixpoint and one per \
       bounded-DP step."

let m_sat_set_size =
  Metrics.histogram "mc_sat_set_size"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e6 13)
    ~help:"Number of satisfying states per computed CTL subformula."

let m_states_explored =
  Metrics.counter "mc_states_explored_total"
    ~help:"States of the state spaces handed to the model checker (summed per environment)."

let m_seeded_fixpoints =
  Metrics.counter "mc_warm_seeded_fixpoints_total"
    ~help:"Unbounded fixpoint computations warm-started from a previous converged sat set."

let m_seedable_fixpoints =
  Metrics.counter "mc_warm_seedable_fixpoints_total"
    ~help:"Unbounded fixpoint computations in warm environments (seeded or not)."

type fix = Ef | Eu | Eg | Au

type backend = {
  states : int;
  initial : int list;
  prop : string -> Bitvec.t;
  blocking : Bitvec.t;
  agg : forall:bool -> Bitvec.t -> Bitvec.t;
  fixpoint : fix -> init:Bitvec.t -> guard:Bitvec.t option -> Bitvec.t;
  bank : Bitvec.t -> unit -> Bitvec.t;
}

(* a previous environment's converged sets, detached from its state space *)
type seeds = (Ctl.t, Bitvec.t) Hashtbl.t

type env = {
  b : backend;
  n : int;
  blocking : Bitvec.t;
  memo : (Ctl.t, unit -> Bitvec.t) Hashtbl.t;
  mutable warm : warm option;
}

(* Warm-start state, present when the env was created with [create_warm].
   [w_mask] holds the states on which the previous state space's converged
   sat bits are exact: a state is masked iff it cannot reach (and is not
   itself) a state whose outgoing row changed or that is new — on such
   states the old and new reachable subgraphs are isomorphic with equal
   labels, so for EVERY CTL subformula the old bit transfers verbatim.
   Least fixpoints join the transferred bits into their initial set (a
   subset of the final set, so the fixpoint converges to the same result
   from much closer); greatest fixpoints (EG) and the bounded dynamic
   programs recompute cold — their iteration shapes gain nothing from a
   partial seed, and staying cold keeps the soundness argument
   one-sided. *)
and warm = {
  w_seeds : seeds;
  w_old_of : int array;
  w_mask : Bitvec.t;
  w_debug : bool;
  mutable w_hits : int;
  mutable w_total : int;
}

let create b =
  let n = b.states in
  Metrics.add m_states_explored n;
  { b; n; blocking = b.blocking; memo = Hashtbl.create 8; warm = None }

let fix env kind ~init ~guard =
  Metrics.add m_fixpoint_sweeps 1;
  env.b.fixpoint kind ~init ~guard

let create_warm ?(debug = false) ~prev ~old_of ~dirty b =
  let env = create b in
  if Array.length old_of <> env.n then
    invalid_arg "Mc.Eval.create_warm: old_of length does not match the state space";
  let dirty_vec = Bitvec.create env.n in
  List.iter
    (fun s ->
      if s < 0 || s >= env.n then invalid_arg "Mc.Eval.create_warm: dirty state out of range";
      Bitvec.unsafe_set dirty_vec s)
    dirty;
  (* Exactness region: states that cannot reach any changed-or-new state.
     Every masked state must have an old counterpart — new states are
     required to be in [dirty], hence outside the mask. *)
  let mask = Bitvec.lognot (fix env Ef ~init:dirty_vec ~guard:None) in
  Bitvec.iter_true
    (fun s ->
      if old_of.(s) < 0 then
        invalid_arg "Mc.Eval.create_warm: unmapped state outside the dirty region")
    mask;
  env.warm <-
    Some
      { w_seeds = prev; w_old_of = old_of; w_mask = mask; w_debug = debug; w_hits = 0; w_total = 0 };
  env

let seeds env =
  let s = Hashtbl.create (Hashtbl.length env.memo) in
  Hashtbl.iter (fun f fetch -> Hashtbl.replace s f (fetch ())) env.memo;
  s

let warm_stats env = Option.map (fun w -> (w.w_hits, w.w_total)) env.warm

(* Transfer the previous env's converged bits for [key] onto the exactness
   mask.  [invert] transfers the complement (for AG, whose inner closure
   computes EF¬g = ¬AG g). *)
let seed_for ~invert env key =
  match env.warm with
  | None -> None
  | Some w -> (
    w.w_total <- w.w_total + 1;
    Metrics.incr m_seedable_fixpoints;
    match Hashtbl.find_opt w.w_seeds key with
    | None -> None
    | Some old_v ->
      w.w_hits <- w.w_hits + 1;
      Metrics.incr m_seeded_fixpoints;
      let s = Bitvec.create env.n in
      Bitvec.iter_true
        (fun i ->
          let o = w.w_old_of.(i) in
          if o >= 0 && Bitvec.get old_v o <> invert then Bitvec.unsafe_set s i)
        w.w_mask;
      Some s)

(* A least fixpoint for the subformula [key], warm-started when a seed is
   available: seeding a least fixpoint is joining the seed into its
   initial set.  With [debug] every seeded fixpoint is recomputed cold and
   compared — the warm path must be bit-for-bit equivalent, not just
   verdict-equal. *)
let least ?(invert = false) env key kind ~guard init =
  match seed_for ~invert env key with
  | None -> fix env kind ~init ~guard
  | Some seed ->
    let fast = fix env kind ~init:(Bitvec.logor init seed) ~guard in
    (match env.warm with
    | Some w when w.w_debug ->
      if not (Bitvec.equal (fix env kind ~init ~guard) fast) then
        failwith
          (Printf.sprintf "Mc.Eval: warm-start divergence in the fixpoint of %s"
             (Fmt.to_to_string Ctl.pp key))
    | _ -> ());
    fast

(* Successor quantification, skipping the backend when the operand is
   empty: every state [forall]-quantifies an empty set exactly when it is
   blocking, and no state [exists]-quantifies one. *)
let agg env ~forall v =
  if not (Bitvec.is_empty v) then env.b.agg ~forall v
  else if forall then Bitvec.copy env.blocking
  else Bitvec.create env.n

(* Bounded operators: dynamic programming from the end of the window back
   to time 0.  [step k h] computes H_k, the states meeting the obligation
   with k time units elapsed, from H_{k+1}; [last] is H_{hi+1}. *)
let bounded_dp ~hi ~last ~step =
  let h = ref last in
  for k = hi downto 0 do
    h := step k !h
  done;
  Metrics.add m_fixpoint_sweeps (hi + 2);
  !h

(* AF/EF/AU/EU within [lo, hi]: [g] once the window is open, or [guard]
   now and a successor step (never from a blocking state) into H_{k+1}.
   Beyond the window nothing holds. *)
let eventually env ~forall { Ctl.lo; hi } ~guard g =
  bounded_dp ~hi ~last:(Bitvec.create env.n) ~step:(fun k next ->
      let cont = Bitvec.logandnot (agg env ~forall next) env.blocking in
      let cont = match guard with None -> cont | Some f -> Bitvec.logand f cont in
      if k >= lo then Bitvec.logor g cont else cont)

(* AG/EG within [lo, hi]: [f] while the window is open, and — before its
   end — a blocking state or a successor step into H_{k+1}. *)
let always env ~forall { Ctl.lo; hi } f =
  let full = Bitvec.create_full env.n in
  bounded_dp ~hi ~last:full ~step:(fun k next ->
      let hold = if k < lo then full else f in
      if k >= hi then Bitvec.copy hold
      else Bitvec.logand hold (Bitvec.logor env.blocking (agg env ~forall next)))

let rec sat_vec env (f : Ctl.t) =
  match Hashtbl.find_opt env.memo f with
  | Some fetch -> fetch ()
  | None ->
    let v = compute env f in
    Hashtbl.add env.memo f (env.b.bank v);
    (* Counting the set is itself a sweep, so only pay it when collecting. *)
    if Metrics.enabled () then
      Metrics.observe m_sat_set_size (float_of_int (Bitvec.count v));
    v

and compute env (f : Ctl.t) =
  let sat = sat_vec env in
  match f with
  | True -> Bitvec.create_full env.n
  | False -> Bitvec.create env.n
  | Prop p -> env.b.prop p
  | Deadlock -> Bitvec.copy env.blocking
  | Not g -> Bitvec.lognot (sat g)
  | And (a, b) -> Bitvec.logand (sat a) (sat b)
  | Or (a, b) -> Bitvec.logor (sat a) (sat b)
  | Implies (a, b) -> Bitvec.logimplies (sat a) (sat b)
  | Ax g -> agg env ~forall:true (sat g)
  | Ex g -> agg env ~forall:false (sat g)
  | Ef (None, g) -> least env f Ef ~guard:None (sat g)
  | Af (None, g) -> least env f Au ~guard:(Some (Bitvec.create_full env.n)) (sat g)
  | Ag (None, g) ->
    (* AG f = ¬EF¬f; the seed for the inner closure is the complement of
       the previous AG set *)
    Bitvec.lognot (least ~invert:true env f Ef ~guard:None (sat (Ctl.Not g)))
  | Eg (None, g) ->
    (* greatest fixpoint: stays cold — seeding from below is unsound and a
       sound superset seed would not shrink the removal cascade *)
    fix env Eg ~init:(sat g) ~guard:None
  | Au (None, a, b) -> least env f Au ~guard:(Some (sat a)) (sat b)
  | Eu (None, a, b) -> least env f Eu ~guard:(Some (sat a)) (sat b)
  | Ef (Some bd, g) -> eventually env ~forall:false bd ~guard:None (sat g)
  | Af (Some bd, g) -> eventually env ~forall:true bd ~guard:None (sat g)
  | Eu (Some bd, a, b) -> eventually env ~forall:false bd ~guard:(Some (sat a)) (sat b)
  | Au (Some bd, a, b) -> eventually env ~forall:true bd ~guard:(Some (sat a)) (sat b)
  | Ag (Some bd, g) -> always env ~forall:true bd (sat g)
  | Eg (Some bd, g) -> always env ~forall:false bd (sat g)

let holds_initially env f =
  let v = sat_vec env f in
  List.for_all (fun q -> Bitvec.get v q) env.b.initial

let failing_initial env f =
  let v = sat_vec env f in
  List.find_opt (fun q -> not (Bitvec.get v q)) env.b.initial

let prop_of_labels ~where universe ~states label p =
  match Mechaml_ts.Universe.index_opt universe p with
  | None -> invalid_arg (Printf.sprintf "Mc.Eval: proposition %S not in %s" p where)
  | Some i -> Bitvec.init states (fun s -> Bitset.mem i (label s))
