exception Closed

exception Bad of string

exception Timeout of string

let max_header_bytes = 16 * 1024

let max_headers = 100

type conn = {
  cfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rstart : int;
  mutable rlen : int;
  read_timeout : float option;
  write_timeout : float option;
  (* server-side headers stamped on whatever response this connection ends
     up sending — set before the request is even parsed, so error responses
     (400/408/500) carry them too *)
  mutable stamped : (string * string) list;
}

(* A write to a peer that has gone away must fail as [EPIPE] — the daemon
   then drops the connection, the shard coordinator counts a dead worker —
   instead of killing the whole process with SIGPIPE.  Set on the first
   connection, so programs that never open one keep the default. *)
let sigpipe_ignored = Atomic.make false

let conn ?read_timeout_s ?write_timeout_s fd =
  if not (Atomic.get sigpipe_ignored) then begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Atomic.set sigpipe_ignored true
  end;
  {
    cfd = fd;
    rbuf = Bytes.create 8192;
    rstart = 0;
    rlen = 0;
    read_timeout = read_timeout_s;
    write_timeout = write_timeout_s;
    stamped = [];
  }

let set_response_header c name value =
  let name = String.lowercase_ascii name in
  c.stamped <- (name, value) :: List.remove_assoc name c.stamped

let fd c = c.cfd

let close c = try Unix.close c.cfd with Unix.Unix_error _ -> ()

(* -- buffered reading ------------------------------------------------------ *)

(* Wait until [fd] is ready in the given direction or the per-connection
   deadline expires.  Select-based — no extra dependencies, and a blocking
   descriptor is fine because readiness is established before the syscall —
   so a slow-loris peer trickling header bytes, or a dead peer that stopped
   ACKing a verdict stream, costs a handler domain at most the timeout. *)
let await_ready c ~dir timeout =
  match timeout with
  | None -> ()
  | Some t ->
    let deadline = Unix.gettimeofday () +. t in
    let rec wait () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then
        raise (Timeout (match dir with `Read -> "read" | `Write -> "write"))
      else begin
        let r, w = match dir with `Read -> ([ c.cfd ], []) | `Write -> ([], [ c.cfd ]) in
        match Unix.select r w [] remaining with
        | [], [], _ -> wait ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      end
    in
    wait ()

let refill c =
  if c.rlen = 0 then begin
    c.rstart <- 0;
    let n =
      let rec read () =
        await_ready c ~dir:`Read c.read_timeout;
        match Unix.read c.cfd c.rbuf 0 (Bytes.length c.rbuf) with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
      in
      read ()
    in
    if n = 0 then raise Closed;
    c.rlen <- n
  end

let read_byte c =
  refill c;
  let b = Bytes.get c.rbuf c.rstart in
  c.rstart <- c.rstart + 1;
  c.rlen <- c.rlen - 1;
  b

(* One CRLF- (or bare-LF-) terminated line, without the terminator. *)
let read_line ?(limit = max_header_bytes) c =
  let b = Buffer.create 128 in
  let rec go () =
    match read_byte c with
    | '\n' ->
      let s = Buffer.contents b in
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
    | ch ->
      if Buffer.length b >= limit then raise (Bad "line too long");
      Buffer.add_char b ch;
      go ()
  in
  go ()

let read_exact c n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    refill c;
    let take = min c.rlen (n - !filled) in
    Bytes.blit c.rbuf c.rstart out !filled take;
    c.rstart <- c.rstart + take;
    c.rlen <- c.rlen - take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

(* -- writing --------------------------------------------------------------- *)

let write_all c s =
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    await_ready c ~dir:`Write c.write_timeout;
    match Unix.write_substring c.cfd s !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* -- header parsing -------------------------------------------------------- *)

let lowercase = String.lowercase_ascii

let trim = String.trim

let parse_header line =
  match String.index_opt line ':' with
  | None -> raise (Bad "malformed header line")
  | Some i ->
    (lowercase (trim (String.sub line 0 i)),
     trim (String.sub line (i + 1) (String.length line - i - 1)))

let read_headers c =
  let rec go acc count bytes =
    let line = read_line c in
    let bytes = bytes + String.length line in
    if bytes > max_header_bytes then raise (Bad "header section too large");
    if line = "" then List.rev acc
    else if count >= max_headers then raise (Bad "too many headers")
    else go (parse_header line :: acc) (count + 1) bytes
  in
  go [] 0 0

(* -- requests -------------------------------------------------------------- *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

let header req name = List.assoc_opt (lowercase name) req.headers

let read_request ?(max_body = 4 * 1024 * 1024) c =
  let line = read_line c in
  let meth, path =
    match String.split_on_char ' ' line with
    | [ meth; path; version ]
      when version = "HTTP/1.1" || version = "HTTP/1.0" ->
      (meth, path)
    | _ -> raise (Bad "malformed request line")
  in
  let headers = read_headers c in
  if List.mem_assoc "transfer-encoding" headers then
    raise (Bad "chunked request bodies are not supported");
  let body =
    match List.assoc_opt "content-length" headers with
    | None -> ""
    | Some v -> (
      match int_of_string_opt (trim v) with
      | Some n when n >= 0 && n <= max_body -> read_exact c n
      | Some _ -> raise (Bad "body too large")
      | None -> raise (Bad "malformed content-length"))
  in
  { meth; path; headers; body }

(* -- responses ------------------------------------------------------------- *)

let status_text = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let head ~status headers =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) headers;
  Buffer.add_string b "\r\n";
  Buffer.contents b

(* caller-supplied headers win over stamped ones of the same name *)
let with_stamped c headers =
  List.filter (fun (k, _) -> not (List.mem_assoc k headers)) (List.rev c.stamped) @ headers

let respond c ~status ?(headers = []) body =
  let headers =
    with_stamped c headers
    @ [ ("content-length", string_of_int (String.length body)); ("connection", "close") ]
  in
  write_all c (head ~status headers);
  write_all c body

let start_chunked c ~status ?(headers = []) () =
  let headers =
    with_stamped c headers @ [ ("transfer-encoding", "chunked"); ("connection", "close") ]
  in
  write_all c (head ~status headers)

let chunk c s =
  if String.length s > 0 then begin
    write_all c (Printf.sprintf "%x\r\n" (String.length s));
    write_all c s;
    write_all c "\r\n"
  end

let finish_chunked c = write_all c "0\r\n\r\n"

(* -- client side ----------------------------------------------------------- *)

type response_head = { status : int; resp_headers : (string * string) list }

let resp_header r name = List.assoc_opt (lowercase name) r.resp_headers

let write_request c ~meth ~path ?(headers = []) body =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) headers;
  Buffer.add_string b
    (Printf.sprintf "content-length: %d\r\nconnection: close\r\n\r\n" (String.length body));
  write_all c (Buffer.contents b);
  write_all c body

let read_response_head c =
  let line = read_line c in
  let status =
    match String.split_on_char ' ' line with
    | version :: code :: _ when String.length version >= 5 && String.sub version 0 5 = "HTTP/"
      -> (
      match int_of_string_opt code with
      | Some s -> s
      | None -> raise (Bad "malformed status line"))
    | _ -> raise (Bad "malformed status line")
  in
  { status; resp_headers = read_headers c }

let read_chunk c =
  let size_line = read_line c in
  (* chunk extensions (";...") are allowed and ignored *)
  let size_str =
    match String.index_opt size_line ';' with
    | Some i -> String.sub size_line 0 i
    | None -> size_line
  in
  match int_of_string_opt ("0x" ^ trim size_str) with
  | None -> raise (Bad "malformed chunk size")
  | Some 0 ->
    (* consume (and discard) trailers up to the blank line *)
    let rec trailers () = if read_line c <> "" then trailers () in
    trailers ();
    None
  | Some n when n < 0 -> raise (Bad "malformed chunk size")
  | Some n ->
    let data = read_exact c n in
    if read_line c <> "" then raise (Bad "chunk not CRLF-terminated");
    Some data

let read_body c r =
  match resp_header r "transfer-encoding" with
  | Some te when lowercase te = "chunked" ->
    let b = Buffer.create 1024 in
    let rec go () =
      match read_chunk c with
      | Some data ->
        Buffer.add_string b data;
        go ()
      | None -> Buffer.contents b
    in
    go ()
  | _ -> (
    match resp_header r "content-length" with
    | Some v -> (
      match int_of_string_opt (trim v) with
      | Some n when n >= 0 -> read_exact c n
      | _ -> raise (Bad "malformed content-length"))
    | None ->
      (* connection: close delimits the body — read to EOF *)
      let b = Buffer.create 1024 in
      (try
         while true do
           refill c;
           Buffer.add_subbytes b c.rbuf c.rstart c.rlen;
           c.rstart <- c.rstart + c.rlen;
           c.rlen <- 0
         done
       with Closed -> ());
      Buffer.contents b)
