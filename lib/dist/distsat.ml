(* The distributed backend: successor sweeps and the four unbounded
   fixpoints run on the worker fleet through {!Distshard.agg} /
   {!Distshard.fixpoint} (each worker on the {!Mechaml_mc.Worklist}
   kernel); satisfaction sets are global bit vectors on the
   coordinator, banked in its segment manager so they share its residency
   budget with the product's CSR segments. *)

module Ctl = Mechaml_logic.Ctl
module Eval = Mechaml_mc.Eval

module Shard = Mechaml_ts.Shard

module Backend = struct
  type t = Distshard.t

  type slot = Mechaml_util.Segment.slot

  let num_states = Distshard.num_states

  let initial d = Shard.initial (Distshard.shard d)

  let prop d p =
    let sp = Distshard.shard d in
    Eval.prop_of_labels ~where:"the distributed product" (Shard.props sp) (Shard.labels sp) p

  let blocking d = Shard.blocking (Distshard.shard d)

  let agg = Distshard.agg

  let fixpoint = Distshard.fixpoint

  let bank d v = Eval.bank_in (Distshard.manager d) v

  let fetch d slot = Eval.fetch_from (Distshard.manager d) slot
end

include Eval.Make (Backend)
