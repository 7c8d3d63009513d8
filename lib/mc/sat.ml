module Automaton = Mechaml_ts.Automaton
module Ctl = Mechaml_logic.Ctl
module Bitvec = Mechaml_util.Bitvec
module Metrics = Mechaml_obs.Metrics

let m_states_explored =
  Metrics.counter "mc_states_explored_total"
    ~help:"States in automata handed to the global model checker (summed at Sat.create)."

(* The materialized backend: one flat block of the worklist kernel.  Both
   transition directions are CSR (compressed sparse row) arrays: [row]/[dst]
   come straight from the automaton's packed index, the predecessor arrays
   invert them once at [create].  Parallel edges appear once per transition
   in both directions, which keeps the successor-counting fixpoints in step
   with the per-transition quantifiers.  Converged sets stay in memory. *)
module Backend = struct
  type t = {
    auto : Automaton.t;
    n : int;
    space : Worklist.space;
    blocking : Bitvec.t;
    memo_arr : (Ctl.t, bool array) Hashtbl.t;
  }

  type slot = Bitvec.t

  let create auto =
    let n = Automaton.num_states auto in
    let row = Automaton.Csr.row auto in
    let dst = Automaton.Csr.dst auto in
    let prow = Array.make (n + 1) 0 in
    Array.iter (fun d -> prow.(d + 1) <- prow.(d + 1) + 1) dst;
    for s = 0 to n - 1 do
      prow.(s + 1) <- prow.(s + 1) + prow.(s)
    done;
    let fill = Array.copy prow in
    let psrc = Array.make (max row.(n) 1) 0 in
    for s = 0 to n - 1 do
      for k = row.(s) to row.(s + 1) - 1 do
        let d = dst.(k) in
        psrc.(fill.(d)) <- s;
        fill.(d) <- fill.(d) + 1
      done
    done;
    let blocking = Bitvec.init n (fun s -> row.(s + 1) = row.(s)) in
    Metrics.add m_states_explored n;
    {
      auto;
      n;
      space = Worklist.flat ~blocking ~row ~dst ~prow ~psrc;
      blocking;
      memo_arr = Hashtbl.create 8;
    }

  let num_states t = t.n

  let initial t = t.auto.Automaton.initial

  let prop t p =
    Eval.prop_of_labels
      ~where:("automaton " ^ t.auto.Automaton.name)
      t.auto.Automaton.props t.auto.Automaton.labels p

  let blocking t = t.blocking

  let agg t = Worklist.agg t.space

  let fixpoint t = Worklist.fixpoint t.space

  let bank _ v = v

  let fetch _ v = v
end

include Eval.Make (Backend)

let create auto = create (Backend.create auto)

let create_warm ?debug ~prev ~old_of ~dirty auto =
  create_warm ?debug ~prev ~old_of ~dirty (Backend.create auto)

let automaton env = (backend env).Backend.auto

let sat env f =
  let memo = (backend env).Backend.memo_arr in
  match Hashtbl.find_opt memo f with
  | Some a -> a
  | None ->
    let a = Bitvec.to_bool_array (sat_vec env f) in
    Hashtbl.add memo f a;
    a
