module Ctl = Mechaml_logic.Ctl
module Shard = Mechaml_ts.Shard
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
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

type fixpoints = {
  agg : forall:bool -> Bitvec.t -> Bitvec.t;
  fixpoint : Eval.fix -> init:Bitvec.t -> guard:Bitvec.t option -> Bitvec.t;
}

(* In process, every shard is an owned block of the worklist kernel, so
   nothing is ever emitted.  A fixpoint runs kernel rounds until quiet:
   each round visits every shard with pending work once, its view resident
   for the whole batch. *)
let in_process sp =
  let space =
    Worklist.blocks ~blocking:(Shard.blocking sp) ~owner:(Shard.owner sp) ~local:(Shard.local sp)
      ~sizes:(Shard.sizes sp)
      ~owned:(Array.make (Shard.shards sp) true)
      (Shard.view sp)
  in
  let fixpoint kind ~init ~guard =
    let r = Worklist.start space kind ~init ~guard ~emit:(fun _ -> assert false) in
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
  in
  { agg = Worklist.agg space; fixpoint }

(* Sets are global bit vectors, the structure is read through the product,
   and converged sets are banked in the product's segment manager so that
   under a budget they spill alongside the CSR segments.  Bank names only
   need to be unique within one manager, but several environments may bank
   into the same product's. *)
let banked = Atomic.make 0

let backend ?fleet sp =
  let run = match fleet with Some f -> f | None -> in_process sp in
  let mgr = Shard.manager sp in
  let bank v =
    Metrics.incr m_sets;
    let name = Printf.sprintf "sat%d" (Atomic.fetch_and_add banked 1) in
    let slot = Segment.add mgr ~name [ ("b", Segment.Bits v) ] in
    fun () ->
      match List.assoc_opt "b" (Segment.get mgr slot) with
      | Some (Segment.Bits b) -> b
      | _ -> raise (Segment.Spill_error "sat segment field missing")
  in
  {
    Eval.states = Shard.num_states sp;
    initial = Shard.initial sp;
    prop =
      Eval.prop_of_labels ~where:"the sharded product" (Shard.props sp)
        ~states:(Shard.num_states sp) (Shard.label sp);
    blocking = Shard.blocking sp;
    agg = run.agg;
    fixpoint = run.fixpoint;
    bank;
  }

let create ?fleet sp = Eval.create (backend ?fleet sp)

let holds_initially = Eval.holds_initially

let space sp ~sat =
  {
    Witness.states = Shard.num_states sp;
    initial = Shard.initial sp;
    succ = Shard.succ sp;
    io = Shard.io sp;
    sat;
    name = Shard.state_name sp;
  }
