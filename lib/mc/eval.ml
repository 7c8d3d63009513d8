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

type env = {
  b : backend;
  n : int;
  blocking : Bitvec.t;
  memo : (Ctl.t, unit -> Bitvec.t) Hashtbl.t;
}

let create b =
  let n = b.states in
  Metrics.add m_states_explored n;
  { b; n; blocking = b.blocking; memo = Hashtbl.create 8 }

let fix env kind ~init ~guard =
  Metrics.add m_fixpoint_sweeps 1;
  env.b.fixpoint kind ~init ~guard

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
  | Ef (None, g) -> fix env Ef ~init:(sat g) ~guard:None
  | Af (None, g) -> fix env Au ~init:(sat g) ~guard:(Some (Bitvec.create_full env.n))
  | Ag (None, g) ->
    (* AG f = ¬EF¬f *)
    Bitvec.lognot (fix env Ef ~init:(sat (Ctl.Not g)) ~guard:None)
  | Eg (None, g) -> fix env Eg ~init:(sat g) ~guard:None
  | Au (None, a, b) ->
    let init = sat b in
    fix env Au ~init ~guard:(Some (sat a))
  | Eu (None, a, b) ->
    let init = sat b in
    fix env Eu ~init ~guard:(Some (sat a))
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
