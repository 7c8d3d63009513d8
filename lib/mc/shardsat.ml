module Ctl = Mechaml_logic.Ctl
module Shard = Mechaml_ts.Shard
module Bitvec = Mechaml_util.Bitvec
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_rounds =
  Metrics.counter "mc_shard_rounds_total"
    ~help:"Shard-batched fixpoint rounds until global convergence."

let m_boundary =
  Metrics.counter "mc_shard_boundary_pushes_total"
    ~help:"Worklist pushes crossing a shard boundary during sharded fixpoints."

let m_sets =
  Metrics.counter "mc_shard_sat_sets_total"
    ~help:"Converged sharded satisfaction sets registered with the segment manager."

(* The sharded backend: sets are global bit vectors, the structure is read
   one shard view at a time, and converged sets are banked in the product's
   segment manager so that under a budget they spill alongside the CSR
   segments. *)
module Backend = struct
  type t = {
    sp : Shard.t;
    n : int;
    k : int;
    owner : int array;
    local : int array;
    sizes : int array;
    blocking : Bitvec.t;
  }

  type slot = Mechaml_util.Segment.slot

  let create sp =
    {
      sp;
      n = Shard.num_states sp;
      k = Shard.shards sp;
      owner = Shard.owner sp;
      local = Shard.local sp;
      sizes = Shard.sizes sp;
      blocking = Shard.blocking sp;
    }

  let num_states t = t.n

  let initial t = Shard.initial t.sp

  let prop t p =
    Eval.prop_of_labels ~where:"the sharded product" (Shard.props t.sp) (Shard.labels t.sp) p

  let blocking t = t.blocking

  let agg t ~forall x =
    let out = Bitvec.create t.n in
    for kk = 0 to t.k - 1 do
      let { Shard.members; row; dst; _ } = Shard.view t.sp kk in
      Array.iteri
        (fun m g -> if Eval.quantify ~forall ~row ~dst x m then Bitvec.unsafe_set out g)
        members
    done;
    out

  (* -- shard-batched worklists ----------------------------------------------

     One local-index stack per shard; [push_from kk g] routes a global id to
     its owning shard's stack, counting it as a boundary push when that
     shard is not [kk], the one being drained.  A fixpoint drains the shard
     stacks in rounds: each round visits every shard with pending work once
     (its view resident for the whole batch).  Each state is pushed at most
     once per fixpoint, so the stacks are plain arrays sized per shard. *)

  let with_stacks t f =
    let stacks = Array.init t.k (fun i -> Array.make (max t.sizes.(i) 1) 0) in
    let sps = Array.make t.k 0 in
    let boundary = ref 0 in
    let seed g =
      let o = t.owner.(g) in
      stacks.(o).(sps.(o)) <- t.local.(g);
      sps.(o) <- sps.(o) + 1
    in
    let push_from kk g =
      if t.owner.(g) <> kk then incr boundary;
      seed g
    in
    let rounds = ref 0 in
    (* [visit kk view m] processes local state [m] of shard [kk] *)
    let run visit =
      let progress = ref true in
      while !progress do
        progress := false;
        let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
        let drained = ref 0 in
        for kk = 0 to t.k - 1 do
          if sps.(kk) > 0 then begin
            progress := true;
            drained := !drained + sps.(kk);
            let v = Shard.view t.sp kk in
            let stack = stacks.(kk) in
            while sps.(kk) > 0 do
              sps.(kk) <- sps.(kk) - 1;
              visit kk v stack.(sps.(kk))
            done
          end
        done;
        if !progress then begin
          incr rounds;
          match t0 with
          | Some start_us ->
            Trace.complete ~name:"mc.shard.round" ~start_us
              ~args:[ ("round", Trace.Int !rounds); ("drained", Trace.Int !drained) ]
              ()
          | None -> ()
        end
      done
    in
    f ~seed ~push_from ~run;
    Metrics.add m_rounds !rounds;
    Metrics.add m_boundary !boundary

  (* EF / E(f U g): backward closure from the initial set through
     [guard]-states. *)
  let closure t out guard =
    with_stacks t (fun ~seed ~push_from ~run ->
        Bitvec.iter_true seed out;
        run (fun kk v m ->
            for e = v.Shard.prow.(m) to v.Shard.prow.(m + 1) - 1 do
              let p = v.Shard.psrc.(e) in
              if (not (Bitvec.unsafe_get out p)) && Bitvec.unsafe_get guard p then begin
                Bitvec.unsafe_set out p;
                push_from kk p
              end
            done))

  (* EG: remove members whose successors all left the set, cascading
     removals through predecessor counts. *)
  let eg t out =
    let cnt = Array.make (max t.n 1) 0 in
    with_stacks t (fun ~seed ~push_from ~run ->
        for kk = 0 to t.k - 1 do
          let v = Shard.view t.sp kk in
          Array.iteri
            (fun m g ->
              if Bitvec.unsafe_get out g then begin
                let c = ref 0 in
                for e = v.Shard.row.(m) to v.Shard.row.(m + 1) - 1 do
                  if Bitvec.unsafe_get out v.Shard.dst.(e) then incr c
                done;
                cnt.(g) <- !c;
                if !c = 0 && not (Bitvec.unsafe_get t.blocking g) then seed g
              end)
            v.Shard.members
        done;
        run (fun kk v m ->
            let g = v.Shard.members.(m) in
            if Bitvec.unsafe_get out g then begin
              Bitvec.unsafe_clear out g;
              for e = v.Shard.prow.(m) to v.Shard.prow.(m + 1) - 1 do
                let p = v.Shard.psrc.(e) in
                if Bitvec.unsafe_get out p then begin
                  cnt.(p) <- cnt.(p) - 1;
                  if cnt.(p) = 0 then push_from kk p
                end
              done
            end))

  (* A(f U g): bad-successor counts with a candidate cascade. *)
  let au t out guard =
    let bad = Array.make (max t.n 1) 0 in
    let candidate g =
      (not (Bitvec.unsafe_get out g))
      && Bitvec.unsafe_get guard g
      && (not (Bitvec.unsafe_get t.blocking g))
      && bad.(g) = 0
    in
    with_stacks t (fun ~seed ~push_from ~run ->
        for kk = 0 to t.k - 1 do
          let v = Shard.view t.sp kk in
          Array.iteri
            (fun m g ->
              let c = ref 0 in
              for e = v.Shard.row.(m) to v.Shard.row.(m + 1) - 1 do
                if not (Bitvec.unsafe_get out v.Shard.dst.(e)) then incr c
              done;
              bad.(g) <- !c)
            v.Shard.members
        done;
        for g = 0 to t.n - 1 do
          if candidate g then begin
            Bitvec.unsafe_set out g;
            seed g
          end
        done;
        run (fun kk v m ->
            for e = v.Shard.prow.(m) to v.Shard.prow.(m + 1) - 1 do
              let p = v.Shard.psrc.(e) in
              bad.(p) <- bad.(p) - 1;
              if candidate p then begin
                Bitvec.unsafe_set out p;
                push_from kk p
              end
            done))

  let fixpoint t (kind : Eval.fix) ~init ~guard =
    let out = Bitvec.copy init in
    let guard = match guard with Some f -> f | None -> Bitvec.create_full t.n in
    (match kind with Ef | Eu -> closure t out guard | Au -> au t out guard | Eg -> eg t out);
    out

  let bank t v =
    Metrics.incr m_sets;
    Eval.bank_in (Shard.manager t.sp) v

  let fetch t slot = Eval.fetch_from (Shard.manager t.sp) slot
end

include Eval.Make (Backend)

let create sp = create (Backend.create sp)
