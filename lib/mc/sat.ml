module Automaton = Mechaml_ts.Automaton
module Bitvec = Mechaml_util.Bitvec

(* One flat block of the worklist kernel.  Both transition directions are
   CSR (compressed sparse row) arrays: [row]/[dst] come straight from the
   automaton's packed index, the predecessor arrays invert them once here.
   Parallel edges appear once per transition in both directions, which
   keeps the successor-counting fixpoints in step with the per-transition
   quantifiers.  Converged sets stay in memory. *)
let backend (auto : Automaton.t) =
  Automaton.require_explicit "Sat.create" auto;
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
  let space = Worklist.flat ~blocking ~row ~dst ~prow ~psrc in
  {
    Eval.states = n;
    initial = auto.Automaton.initial;
    prop =
      Eval.prop_of_labels
        ~where:("automaton " ^ auto.Automaton.name)
        auto.Automaton.props ~states:n (Automaton.label auto);
    blocking;
    agg = Worklist.agg space;
    fixpoint = Worklist.fixpoint space;
    bank = (fun v () -> v);
  }

let create auto = Eval.create (backend auto)

let space auto env =
  let transitions s = Automaton.transitions_from auto s in
  {
    Witness.states = Automaton.num_states auto;
    initial = auto.Automaton.initial;
    succ =
      Array.map (fun s ->
          Array.of_list (List.map (fun (t : Automaton.trans) -> t.dst) (transitions s)));
    io =
      (fun s k ->
        let t = List.nth (transitions s) k in
        (t.Automaton.input, t.Automaton.output));
    sat = Eval.sat_vec env;
    name = Automaton.state_name auto;
  }
