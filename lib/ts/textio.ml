type error = { line : int; message : string }

exception Error of error

let fail line message = raise (Error { line; message })

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

type decl = {
  mutable name : string;
  mutable inputs : string list option;
  mutable outputs : string list option;
  mutable initial : string list option;
  mutable states : (string * string list) list; (* reverse order *)
  mutable trans : (string * string list * string list * string) list; (* reverse *)
}

(* trans <src> : <inputs> / <outputs> -> <dst> *)
let parse_trans lineno rest =
  let rec split_at sep acc = function
    | [] -> fail lineno (Printf.sprintf "missing %S in trans line" sep)
    | t :: rest when t = sep -> (List.rev acc, rest)
    | t :: rest -> split_at sep (t :: acc) rest
  in
  match rest with
  | src :: rest ->
    let before_colon, rest = ([ src ], rest) in
    let rest =
      match rest with
      | ":" :: r -> r
      | _ -> fail lineno "expected ':' after the source state"
    in
    let inputs, rest = split_at "/" [] rest in
    let outputs, rest = split_at "->" [] rest in
    (match rest with
    | [ dst ] -> (List.hd before_colon, inputs, outputs, dst)
    | [] -> fail lineno "missing destination state"
    | _ -> fail lineno "trailing tokens after the destination state")
  | [] -> fail lineno "trans needs a source state"

let parse_string ~default_name text =
  let d =
    { name = default_name; inputs = None; outputs = None; initial = None; states = []; trans = [] }
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match tokens (strip_comment line) with
      | [] -> ()
      | "automaton" :: [ n ] -> d.name <- n
      | "automaton" :: _ -> fail lineno "automaton takes exactly one name"
      | "inputs" :: signals -> d.inputs <- Some signals
      | "outputs" :: signals -> d.outputs <- Some signals
      | "initial" :: states when states <> [] -> d.initial <- Some states
      | "initial" :: _ -> fail lineno "initial needs at least one state"
      | "state" :: name :: rest ->
        let props =
          match rest with
          | [] -> []
          | "props" :: props -> props
          | _ -> fail lineno "expected 'props' after the state name"
        in
        d.states <- (name, props) :: d.states
      | "state" :: [] -> fail lineno "state needs a name"
      | "trans" :: rest -> d.trans <- parse_trans lineno rest :: d.trans
      | directive :: _ -> fail lineno (Printf.sprintf "unknown directive %S" directive))
    (String.split_on_char '\n' text);
  let require what = function
    | Some v -> v
    | None -> fail 0 (Printf.sprintf "missing %s directive" what)
  in
  let b =
    Automaton.Builder.create ~name:d.name ~inputs:(require "inputs" d.inputs)
      ~outputs:(require "outputs" d.outputs) ()
  in
  List.iter
    (fun (name, props) -> ignore (Automaton.Builder.add_state b ~props name))
    (List.rev d.states);
  List.iter
    (fun (src, inputs, outputs, dst) ->
      try Automaton.Builder.add_trans b ~src ~inputs ~outputs ~dst ()
      with Invalid_argument m -> fail 0 m)
    (List.rev d.trans);
  Automaton.Builder.set_initial b (require "initial" d.initial);
  try Automaton.Builder.build b with Invalid_argument m -> fail 0 m

let parse text =
  match parse_string ~default_name:"automaton" text with
  | m -> Ok m
  | exception Error e -> Error e

let parse_exn text =
  match parse text with
  | Ok m -> m
  | Error { line; message } ->
    invalid_arg (Printf.sprintf "Textio.parse line %d: %s" line message)

let load ~path =
  let ic = open_in path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let default_name = Filename.remove_extension (Filename.basename path) in
  match parse_string ~default_name text with
  | m -> Ok m
  | exception Error e -> Error e

let print (m : Automaton.t) =
  Automaton.require_explicit "Textio.print" m;
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "automaton %s\n" m.Automaton.name;
  add "inputs %s\n" (String.concat " " (Universe.to_list m.Automaton.inputs));
  add "outputs %s\n" (String.concat " " (Universe.to_list m.Automaton.outputs));
  add "initial %s\n"
    (String.concat " " (List.map (Automaton.state_name m) m.Automaton.initial));
  for s = 0 to Automaton.num_states m - 1 do
    let props = Universe.names_of_set m.Automaton.props (Automaton.label m s) in
    if props = [] then add "state %s\n" (Automaton.state_name m s)
    else add "state %s props %s\n" (Automaton.state_name m s) (String.concat " " props)
  done;
  for s = 0 to Automaton.num_states m - 1 do
    List.iter
      (fun (t : Automaton.trans) ->
        add "trans %s : %s / %s -> %s\n" (Automaton.state_name m s)
          (String.concat " " (Universe.names_of_set m.Automaton.inputs t.input))
          (String.concat " " (Universe.names_of_set m.Automaton.outputs t.output))
          (Automaton.state_name m t.dst))
      (Automaton.transitions_from m s)
  done;
  Buffer.contents buf

let save ~path m =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (print m))
