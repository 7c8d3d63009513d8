module Automaton = Mechaml_ts.Automaton
module Ctl = Mechaml_logic.Ctl
module Bitvec = Mechaml_util.Bitvec
module Metrics = Mechaml_obs.Metrics

let m_states_explored =
  Metrics.counter "mc_states_explored_total"
    ~help:"States in automata handed to the global model checker (summed at Sat.create)."

let m_worklist_pops =
  Metrics.counter "mc_worklist_pops_total"
    ~help:"States popped from the EF/EG/AU/EU fixpoint worklists."

(* The materialized backend.  Both transition directions are CSR
   (compressed sparse row) arrays: [row]/[dst] come straight from the
   automaton's packed index, [pred_row]/[pred_src] invert them once at
   [create].  Parallel edges appear once per transition in both directions,
   which keeps the successor-counting fixpoints in step with the
   per-transition quantifiers.  Converged sets stay in memory. *)
module Backend = struct
  type t = {
    auto : Automaton.t;
    n : int;
    row : int array;
    dst : int array;
    pred_row : int array;
    pred_src : int array;
    blocking : Bitvec.t;
    memo_arr : (Ctl.t, bool array) Hashtbl.t;
  }

  type slot = Bitvec.t

  let create auto =
    let n = Automaton.num_states auto in
    let row = Automaton.Csr.row auto in
    let dst = Automaton.Csr.dst auto in
    let total = row.(n) in
    let pred_row = Array.make (n + 1) 0 in
    Array.iter (fun d -> pred_row.(d + 1) <- pred_row.(d + 1) + 1) dst;
    for s = 0 to n - 1 do
      pred_row.(s + 1) <- pred_row.(s + 1) + pred_row.(s)
    done;
    let fill = Array.copy pred_row in
    let pred_src = Array.make (max total 1) 0 in
    for s = 0 to n - 1 do
      for k = row.(s) to row.(s + 1) - 1 do
        let d = dst.(k) in
        pred_src.(fill.(d)) <- s;
        fill.(d) <- fill.(d) + 1
      done
    done;
    let blocking = Bitvec.init n (fun s -> row.(s + 1) = row.(s)) in
    Metrics.add m_states_explored n;
    { auto; n; row; dst; pred_row; pred_src; blocking; memo_arr = Hashtbl.create 8 }

  let num_states t = t.n

  let initial t = t.auto.Automaton.initial

  let prop t p =
    Eval.prop_of_labels
      ~where:("automaton " ^ t.auto.Automaton.name)
      t.auto.Automaton.props t.auto.Automaton.labels p

  let blocking t = t.blocking

  let agg t ~forall v = Bitvec.init t.n (Eval.quantify ~forall ~row:t.row ~dst:t.dst v)

  (* All worklist fixpoints push each state at most once, so a plain int
     array serves as the stack. *)
  let with_stack t f =
    let stack = Array.make (max t.n 1) 0 in
    let sp = ref 0 in
    let push s =
      stack.(!sp) <- s;
      incr sp
    in
    let pops = ref 0 in
    let pop () =
      decr sp;
      incr pops;
      stack.(!sp)
    in
    let out = f ~push ~pop ~pending:(fun () -> !sp > 0) in
    Metrics.add m_worklist_pops !pops;
    out

  (* EF / E(f U g): backward closure from [init] through [guard]-states. *)
  let closure t out guard =
    with_stack t (fun ~push ~pop ~pending ->
        Bitvec.iter_true push out;
        while pending () do
          let s = pop () in
          for k = t.pred_row.(s) to t.pred_row.(s + 1) - 1 do
            let p = t.pred_src.(k) in
            if (not (Bitvec.unsafe_get out p)) && Bitvec.unsafe_get guard p then begin
              Bitvec.unsafe_set out p;
              push p
            end
          done
        done;
        out)

  (* EG over maximal runs: remove states that are not blocking and have no
     successor left in the set.  [cnt.(s)] tracks the successor edges still
     inside the set; a state is removed exactly when its count reaches zero,
     and each removal decrements its predecessors — O(E) total instead of
     repeated whole-space sweeps. *)
  let eg t out =
    let cnt = Array.make t.n 0 in
    with_stack t (fun ~push ~pop ~pending ->
        for s = 0 to t.n - 1 do
          if Bitvec.unsafe_get out s then begin
            let c = ref 0 in
            for k = t.row.(s) to t.row.(s + 1) - 1 do
              if Bitvec.unsafe_get out t.dst.(k) then incr c
            done;
            cnt.(s) <- !c;
            if !c = 0 && not (Bitvec.unsafe_get t.blocking s) then push s
          end
        done;
        while pending () do
          let s = pop () in
          if Bitvec.unsafe_get out s then begin
            Bitvec.unsafe_clear out s;
            for k = t.pred_row.(s) to t.pred_row.(s + 1) - 1 do
              let p = t.pred_src.(k) in
              if Bitvec.unsafe_get out p then begin
                cnt.(p) <- cnt.(p) - 1;
                (* predecessors have outgoing edges, so never blocking *)
                if cnt.(p) = 0 then push p
              end
            done
          end
        done;
        out)

  (* A(f U g) over maximal runs: a blocking ¬g state fails.  [bad.(s)]
     counts successor edges leaving the set; a candidate joins when it hits
     zero, decrementing its predecessors' counts in turn. *)
  let au t out guard =
    let bad = Array.make t.n 0 in
    let candidate s =
      (not (Bitvec.unsafe_get out s))
      && Bitvec.unsafe_get guard s
      && (not (Bitvec.unsafe_get t.blocking s))
      && bad.(s) = 0
    in
    with_stack t (fun ~push ~pop ~pending ->
        for s = 0 to t.n - 1 do
          let c = ref 0 in
          for k = t.row.(s) to t.row.(s + 1) - 1 do
            if not (Bitvec.unsafe_get out t.dst.(k)) then incr c
          done;
          bad.(s) <- !c
        done;
        for s = 0 to t.n - 1 do
          if candidate s then begin
            Bitvec.unsafe_set out s;
            push s
          end
        done;
        while pending () do
          let s = pop () in
          for k = t.pred_row.(s) to t.pred_row.(s + 1) - 1 do
            let p = t.pred_src.(k) in
            bad.(p) <- bad.(p) - 1;
            if candidate p then begin
              Bitvec.unsafe_set out p;
              push p
            end
          done
        done;
        out)

  let fixpoint t (kind : Eval.fix) ~init ~guard =
    let out = Bitvec.copy init in
    let guard = match guard with Some f -> f | None -> Bitvec.create_full t.n in
    match kind with Ef | Eu -> closure t out guard | Au -> au t out guard | Eg -> eg t out

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
