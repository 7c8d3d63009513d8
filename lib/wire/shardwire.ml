(* Wire codec for the distributed shard tier: every coordinator↔worker
   exchange is one HTTP/1.1 POST whose body is a [msg] — a small JSON
   control part plus an optional bulk part in the self-describing,
   digest-checked [mechaseg] segment format.  Bulk data (frontier batches,
   edge deltas, boundary bitset deltas, whole CSR segments) therefore gets
   the same corruption guarantee as spill files: a flipped bit or truncated
   tail surfaces as {!Wire_error}, never as wrong fixpoint bits. *)

module Json = Mechaml_obs.Json
module Segment = Mechaml_util.Segment
module Bitset = Mechaml_util.Bitset
module Universe = Mechaml_ts.Universe
module Automaton = Mechaml_ts.Automaton

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Wire_error m)) fmt

type msg = {
  meta : Json.t;
  data : Segment.payload;
}

let msg ?(data = []) meta = { meta; data }

(* -- framing ----------------------------------------------------------------

   ["msw1 <json-len> <seg-len>\n" ^ json ^ segment].  The segment part, when
   present, is exactly [Segment.to_string data] — versioned header plus MD5
   digest — so [decode] verifies it with the spill-file codec. *)

let encode { meta; data } =
  let j = Json.to_string meta in
  let b = match data with [] -> "" | _ -> Segment.to_string data in
  Printf.sprintf "msw1 %d %d\n%s%s" (String.length j) (String.length b) j b

let decode s =
  let nl = match String.index_opt s '\n' with Some i -> i | None -> fail "wire: missing frame header" in
  (match String.split_on_char ' ' (String.sub s 0 nl) with
  | [ "msw1"; jl; bl ] -> (
    match (int_of_string_opt jl, int_of_string_opt bl) with
    | Some jl, Some bl when jl >= 0 && bl >= 0 ->
      if String.length s - nl - 1 <> jl + bl then fail "wire: frame length mismatch"
      else
        let meta =
          match Json.parse (String.sub s (nl + 1) jl) with
          | Ok j -> j
          | Error m -> fail "wire: bad control JSON: %s" m
        in
        let data =
          if bl = 0 then []
          else
            match Segment.of_string ~what:"wire segment" (String.sub s (nl + 1 + jl) bl) with
            | Ok p -> p
            | Error m -> fail "%s" m
        in
        { meta; data }
    | _ -> fail "wire: malformed frame header")
  | _ -> fail "wire: not a shardwire frame")

(* -- control JSON accessors (fail closed) ----------------------------------- *)

let jint j name =
  match Json.member name j with
  | Some (Json.Num f) when Float.is_integer f -> int_of_float f
  | _ -> fail "wire: missing integer field %S" name

let jint_opt j name =
  match Json.member name j with
  | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let jstr j name =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> fail "wire: missing string field %S" name

let int_list name = function
  | Some (Json.List l) ->
    List.map
      (function Json.Num f when Float.is_integer f -> int_of_float f | _ -> fail "wire: non-integer in %S" name)
      l
  | _ -> fail "wire: missing list field %S" name

let jints j name = int_list name (Json.member name j)

let num i = Json.Num (float_of_int i)

let nums l = Json.List (List.map num l)

let ints data name =
  match List.assoc_opt name data with
  | Some (Segment.Ints a) -> a
  | _ -> fail "wire: missing Ints field %S" name

let ints_opt data name =
  match List.assoc_opt name data with Some (Segment.Ints a) -> Some a | _ -> None

let bits data name =
  match List.assoc_opt name data with
  | Some (Segment.Bits b) -> b
  | _ -> fail "wire: missing Bits field %S" name

(* -- automaton codec --------------------------------------------------------

   Order-preserving: adjacency lists round-trip in their exact enumeration
   order (unlike {!Mechaml_ts.Textio}, which round-trips only up to
   transition order), so a worker re-expanding a state pair enumerates joint
   moves byte-identically to the coordinator's in-process twin.  Escapes
   travel as what they are — per state [null] or [[excluded, dsts]] — so a
   closure ships its known edges and exclusion sets, never the interactions
   that lead to chaos. *)

let json_of_automaton (a : Automaton.t) =
  let univ u = Json.List (List.map (fun n -> Json.Str n) (Universe.to_list u)) in
  let labels =
    Json.List (Array.to_list (Array.map (fun l -> num (Bitset.to_int l)) a.Automaton.labels))
  in
  let states =
    Json.List (Array.to_list (Array.map (fun n -> Json.Str n) a.Automaton.state_names))
  in
  let trans =
    Json.List
      (Array.to_list
         (Array.map
            (fun ts ->
              Json.List
                (List.concat_map
                   (fun (t : Automaton.trans) ->
                     [ num (Bitset.to_int t.input); num (Bitset.to_int t.output); num t.dst ])
                   ts))
            a.Automaton.trans))
  in
  let escapes =
    if not (Automaton.has_escapes a) then []
    else
      [
        ( "escapes",
          Json.List
            (Array.to_list
               (Array.map
                  (function
                    | None -> Json.Null
                    | Some (e : Automaton.escape) ->
                      Json.List [ nums (Array.to_list e.excluded); nums e.dsts ])
                  a.Automaton.escapes)) );
      ]
  in
  Json.Obj
    ([
       ("name", Json.Str a.Automaton.name);
       ("inputs", univ a.Automaton.inputs);
       ("outputs", univ a.Automaton.outputs);
       ("props", univ a.Automaton.props);
       ("states", states);
       ("labels", labels);
       ("initial", nums a.Automaton.initial);
       ("trans", trans);
     ]
    @ escapes)

let automaton_of_json j =
  let univ name =
    match Json.member name j with
    | Some (Json.List l) ->
      Universe.of_list
        (List.map (function Json.Str s -> s | _ -> fail "wire: bad universe %S" name) l)
    | _ -> fail "wire: missing universe %S" name
  in
  let name = jstr j "name" in
  let inputs = univ "inputs" and outputs = univ "outputs" and props = univ "props" in
  let state_names =
    match Json.member "states" j with
    | Some (Json.List l) ->
      Array.of_list
        (List.map (function Json.Str s -> s | _ -> fail "wire: bad state name") l)
    | _ -> fail "wire: missing field \"states\""
  in
  let labels =
    Array.of_list (List.map (fun i -> Bitset.of_int_unsafe i) (jints j "labels"))
  in
  let rec triples = function
    | [] -> []
    | i :: o :: d :: rest ->
      { Automaton.input = Bitset.of_int_unsafe i; output = Bitset.of_int_unsafe o; dst = d }
      :: triples rest
    | _ -> fail "wire: ragged transition list"
  in
  let trans =
    match Json.member "trans" j with
    | Some (Json.List rows) ->
      Array.of_list
        (List.map
           (function
             | Json.List l ->
               triples
                 (List.map
                    (function
                      | Json.Num f when Float.is_integer f -> int_of_float f
                      | _ -> fail "wire: non-integer transition entry")
                    l)
             | _ -> fail "wire: bad transition row")
           rows)
    | _ -> fail "wire: missing field \"trans\""
  in
  let initial = jints j "initial" in
  let escapes =
    match Json.member "escapes" j with
    | None -> [||]
    | Some (Json.List l) ->
      Array.of_list
        (List.map
           (function
             | Json.Null -> None
             | Json.List [ excluded; dsts ] ->
               Some
                 {
                   Automaton.excluded = Array.of_list (int_list "escapes" (Some excluded));
                   dsts = int_list "escapes" (Some dsts);
                 }
             | _ -> fail "wire: bad escape")
           l)
    | Some _ -> fail "wire: bad field \"escapes\""
  in
  try
    Automaton.of_packed ~assume_unique_names:true ~name ~inputs ~outputs ~props ~state_names
      ~labels ~trans ~escapes ~initial ()
  with Invalid_argument m -> fail "wire: inconsistent automaton: %s" m

(* -- addresses and transport ------------------------------------------------ *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  if String.contains s '/' then Unix_sock s
  else
    match String.rindex_opt s ':' with
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Tcp ((if host = "" then "127.0.0.1" else host), p)
      | _ -> fail "wire: bad address %S (expected host:port or a socket path)" s)
    | None -> fail "wire: bad address %S (expected host:port or a socket path)" s

let addr_to_string = function
  | Unix_sock p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> fail "wire: cannot resolve %S" host
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found -> fail "wire: cannot resolve %S" host)

let connect addr =
  match addr with
  | Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> Unix.close fd; raise e);
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (resolve host, port))
     with e -> Unix.close fd; raise e);
    fd

let listen addr =
  match addr with
  | Unix_sock path ->
    (try if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
     with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64
     with e -> Unix.close fd; raise e);
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (resolve host, port));
       Unix.listen fd 64
     with e -> Unix.close fd; raise e);
    fd

(* One POST per exchange, [Connection: close] like the daemon's client — a
   connect on a Unix or loopback socket is far cheaper than any round's
   payload.  Returns the reply and the byte volume both ways (the
   coordinator's [mc_dist_bytes_{tx,rx}_total] series).  Transport failures
   (refused, reset, EOF, deadline) escape as their own exceptions — the
   coordinator reads those as a dead or stalled worker, while {!Wire_error}
   means the peer answered garbage. *)
let call ?deadline_s addr ~path m =
  let fd = connect addr in
  let conn = Http.conn ?read_timeout_s:deadline_s ?write_timeout_s:deadline_s fd in
  Fun.protect
    ~finally:(fun () -> Http.close conn)
    (fun () ->
      let body = encode m in
      Http.write_request conn ~meth:"POST" ~path body;
      let head = Http.read_response_head conn in
      let resp = Http.read_body conn head in
      if head.Http.status <> 200 then
        fail "wire: %s %s answered %d: %s" (addr_to_string addr) path head.Http.status
          (if String.length resp > 200 then String.sub resp 0 200 else resp);
      (decode resp, String.length body, String.length resp))
