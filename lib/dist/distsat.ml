(* The distributed backend: successor sweeps and the four unbounded
   fixpoints run on the worker fleet through {!Distshard.agg} /
   {!Distshard.fixpoint}; satisfaction sets are global bit vectors on the
   coordinator, banked in its segment manager so they share its residency
   budget with the banked CSR generations. *)

module Ctl = Mechaml_logic.Ctl
module Eval = Mechaml_mc.Eval

module Backend = struct
  type t = Distshard.t

  type slot = Mechaml_util.Segment.slot

  let num_states = Distshard.num_states

  let initial = Distshard.initial

  let prop d p =
    Eval.prop_of_labels ~where:"the distributed product" (Distshard.props d)
      (Distshard.labels d) p

  let blocking = Distshard.blocking

  let agg = Distshard.agg

  let fixpoint = Distshard.fixpoint

  let bank d v = Eval.bank_in (Distshard.manager d) v

  let fetch d slot = Eval.fetch_from (Distshard.manager d) slot
end

include Eval.Make (Backend)
