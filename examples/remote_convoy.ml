(* Convoy coordination over a real (delayed, possibly lossy) wireless link.

   The synchronous RailCab walkthrough (examples/railcab_convoy.exe) wires
   the roles directly; here every message crosses an explicit connector
   channel, as the Mechatronic UML pattern prescribes for radio links.  The
   loop then surfaces two findings a synchronous model hides:

   - a front role that leaves the convoy while its acknowledgement is still
     in flight briefly violates the pattern constraint (it needs a grace
     state covering the channel delay);
   - a lossy link never deadlocks the handshake, but breaks the bounded
     response obligation "a proposal is answered within 6 time units" — and
     the counterexample replays on the real component.

   Run with: dune exec examples/remote_convoy.exe *)

module Remote = Mechaml_scenarios.Railcab_remote
module Listing = Mechaml_scenarios.Listing
module Loop = Mechaml_core.Loop
module Ctl = Mechaml_logic.Ctl

let show name (r : Loop.result) =
  Format.printf "== %s ==@.@.%a@.@." name Loop.pp_result r;
  match r.Loop.verdict with
  | Loop.Real_violation { witness; product; _ } ->
    let product = Lazy.force product in
    Format.printf "Counterexample:@.%s@."
      (Listing.render ~left_name:"front+link" ~right_name:"shuttle2" product witness)
  | _ -> ()

let () =
  Format.printf "Pattern constraint: %s@." (Ctl.to_string Remote.constraint_);
  Format.printf "Bounded response:   %s@.@." (Ctl.to_string Remote.response_property);
  show "Reliable link, pattern constraint"
    (Remote.run ~lossy:false ~property:Remote.constraint_ ());
  show "Reliable link, bounded response"
    (Remote.run ~lossy:false ~property:Remote.response_property ());
  show "Lossy link, bounded response"
    (Remote.run ~lossy:true ~property:Remote.response_property ());
  show "Reliable link, front role without the grace state"
    (Loop.run ~label_of:Remote.label_of ~context:Remote.front_hasty_context
       ~property:Remote.constraint_ ~legacy:Remote.box_remote ())
