(* A fleet product is checked by {!Mechaml_mc.Shardsat} with its successor
   sweeps and fixpoints run on the workers through {!Distshard.agg} /
   {!Distshard.fixpoint} (each worker on the {!Mechaml_mc.Worklist}
   kernel); satisfaction sets are global bit vectors on the coordinator,
   banked in its segment manager so they share its residency budget with
   the product's CSR segments. *)

module Shardsat = Mechaml_mc.Shardsat

let fleet d = { Shardsat.agg = Distshard.agg d; fixpoint = Distshard.fixpoint d }

let create d = Shardsat.create ~fleet:(fleet d) (Distshard.shard d)

let holds_initially = Mechaml_mc.Eval.holds_initially
