module Bitset = Mechaml_util.Bitset

let escape s =
  String.concat "" (List.map (fun c -> if c = '"' then "\\\"" else String.make 1 c) (List.init (String.length s) (String.get s)))

let io_label (m : Automaton.t) (t : Automaton.trans) =
  let part u s =
    match Universe.names_of_set u s with [] -> "-" | names -> String.concat "," names
  in
  part m.inputs t.input ^ " / " ^ part m.outputs t.output

let of_automaton ?(highlight = []) (m : Automaton.t) =
  Automaton.require_explicit "Dot.of_automaton" m;
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph \"%s\" {\n" (escape m.name);
  add "  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n  edge [fontname=\"Helvetica\"];\n";
  let n = Automaton.num_states m in
  (* A state with the complete ℘(I)×℘(O) fan-out towards a single target is
     rendered with one '*' edge, matching the paper's figures. *)
  let full_fanout = 1 lsl (Universe.size m.inputs + Universe.size m.outputs) in
  for s = 0 to n - 1 do
    let props = Universe.names_of_set m.props (Automaton.label m s) in
    let label =
      escape (Automaton.state_name m s)
      ^ if props = [] then "" else "\\n[" ^ escape (String.concat ", " props) ^ "]"
    in
    let shape = if List.mem s m.initial then "doublecircle" else "circle" in
    let color = if List.mem s highlight then ", style=filled, fillcolor=lightyellow" else "" in
    add "  s%d [label=\"%s\", shape=%s%s];\n" s label shape color
  done;
  for s = 0 to n - 1 do
    let ts = Automaton.transitions_from m s in
    (* Group transitions by destination to detect '*' fan-outs. *)
    let by_dst = Hashtbl.create 8 in
    List.iter
      (fun (t : Automaton.trans) ->
        let l = try Hashtbl.find by_dst t.dst with Not_found -> [] in
        Hashtbl.replace by_dst t.dst (t :: l))
      ts;
    Hashtbl.iter
      (fun dst group ->
        if List.length group = full_fanout && full_fanout > 1 then
          add "  s%d -> s%d [label=\"*\"];\n" s dst
        else
          List.iter
            (fun t -> add "  s%d -> s%d [label=\"%s\"];\n" s dst (escape (io_label m t)))
            group)
      by_dst
  done;
  add "}\n";
  Buffer.contents buf

let save ~path dot =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc dot)
