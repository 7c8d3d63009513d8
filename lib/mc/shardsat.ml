module Ctl = Mechaml_logic.Ctl
module Shard = Mechaml_ts.Shard
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

(* The sharded backend: every shard is an owned block of the worklist
   kernel, so nothing is ever emitted.  Sets are global bit vectors, the
   structure is read one shard view at a time, and converged sets are
   banked in the product's segment manager so that under a budget they
   spill alongside the CSR segments. *)
module Backend = struct
  type t = { sp : Shard.t; space : Worklist.space }

  type slot = Mechaml_util.Segment.slot

  let create sp =
    {
      sp;
      space =
        Worklist.blocks ~blocking:(Shard.blocking sp) ~owner:(Shard.owner sp)
          ~local:(Shard.local sp) ~sizes:(Shard.sizes sp)
          ~owned:(Array.make (Shard.shards sp) true)
          (Shard.view sp);
    }

  let num_states t = Shard.num_states t.sp

  let initial t = Shard.initial t.sp

  let prop t p =
    Eval.prop_of_labels ~where:"the sharded product" (Shard.props t.sp) (Shard.labels t.sp) p

  let blocking t = Shard.blocking t.sp

  let agg t = Worklist.agg t.space

  (* Kernel rounds until quiet: each round visits every shard with pending
     work once, its view resident for the whole batch. *)
  let fixpoint t kind ~init ~guard =
    let r = Worklist.start t.space kind ~init ~guard ~emit:(fun _ -> assert false) in
    let rounds = ref 0 in
    let rec go () =
      let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
      let drained = Worklist.round r in
      if drained > 0 then begin
        incr rounds;
        Option.iter
          (fun start_us ->
            Trace.complete ~name:"mc.shard.round" ~start_us
              ~args:[ ("round", Trace.Int !rounds); ("drained", Trace.Int drained) ]
              ())
          t0;
        go ()
      end
    in
    go ();
    Metrics.add m_rounds !rounds;
    Metrics.add m_boundary (Worklist.boundary r);
    Worklist.result r

  let bank t v =
    Metrics.incr m_sets;
    Eval.bank_in (Shard.manager t.sp) v

  let fetch t slot = Eval.fetch_from (Shard.manager t.sp) slot
end

include Eval.Make (Backend)

let create sp = create (Backend.create sp)
