type recording = {
  inputs : string list list;
  minimal_events : Event.t list;
  blocked : string list option;
}

let record ~box ~inputs =
  let outcome = Monitor.run ~box ~instrumentation:Monitor.Minimal ~inputs in
  (* Only the periods that actually executed are part of the recording; a
     refused period contributes no events.  One output list per executed
     period, so the executed prefix is taken in one walk over both lists. *)
  let rec prefix acc ins outs =
    match (ins, outs) with
    | i :: ins', _ :: outs' -> prefix (i :: acc) ins' outs'
    | _ -> List.rev acc
  in
  let executed = prefix [] inputs outcome.Monitor.outputs in
  { inputs = executed; minimal_events = outcome.Monitor.events; blocked = outcome.Monitor.blocked }

let replay ~box recording =
  let outcome = Monitor.run ~box ~instrumentation:Monitor.Full ~inputs:recording.inputs in
  let replayed = Event.messages outcome.Monitor.events in
  let recorded = Event.messages recording.minimal_events in
  if replayed <> recorded then
    invalid_arg
      (Printf.sprintf
         "Replay.replay: %s diverged from its recording — the component is not deterministic"
         box.Blackbox.name);
  outcome

let observe_full ~box ~inputs =
  let recording = record ~box ~inputs in
  (recording, replay ~box recording)
