module Context = Mechaml_obs.Context
module Json = Mechaml_obs.Json
module Campaign = Mechaml_engine.Campaign
module Http = Mechaml_wire.Http

type endpoint = {
  host : string;
  port : int;
}

type error =
  | Busy of float
  | Http_error of int * string
  | Protocol of string
  | Connection of string

let error_string = function
  | Busy retry -> Printf.sprintf "daemon busy, retry after %.2fs" retry
  | Http_error (status, body) -> Printf.sprintf "HTTP %d: %s" status body
  | Protocol msg -> "protocol error: " ^ msg
  | Connection msg -> "connection error: " ^ msg

let resolve host =
  try Unix.inet_addr_of_string host
  with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let with_conn ?io_timeout_s ep f =
  try
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (resolve ep.host, ep.port))
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    let c = Http.conn ?read_timeout_s:io_timeout_s ?write_timeout_s:io_timeout_s fd in
    Fun.protect ~finally:(fun () -> Http.close c) (fun () -> f c)
  with
  | Unix.Unix_error (e, _, _) -> Error (Connection (Unix.error_message e))
  | Not_found -> Error (Connection ("cannot resolve host " ^ ep.host))
  | Http.Closed -> Error (Connection "peer closed the connection")
  | Http.Timeout dir -> Error (Connection ("i/o timeout (" ^ dir ^ ")"))
  | Http.Bad msg -> Error (Protocol msg)

let get ?io_timeout_s ep path =
  with_conn ?io_timeout_s ep (fun c ->
      Http.write_request c ~meth:"GET" ~path "";
      let head = Http.read_response_head c in
      Ok (head.Http.status, Http.read_body c head))

let get_traced ?io_timeout_s ?request_id ep path =
  let rid = match request_id with Some r -> r | None -> Context.fresh () in
  with_conn ?io_timeout_s ep (fun c ->
      Http.write_request c ~meth:"GET" ~path ~headers:[ ("x-request-id", rid) ] "";
      let head = Http.read_response_head c in
      let echoed = Http.resp_header head "x-request-id" in
      Ok (head.Http.status, Http.read_body c head, echoed))

let connect ?(host = "127.0.0.1") ~port () =
  let ep = { host; port } in
  match get ep "/healthz" with
  | Ok (200, _) -> Ok ep
  | Ok (status, body) -> Error (Http_error (status, String.trim body))
  | Error _ as e -> e

let metrics ep =
  match get ep "/metrics" with
  | Ok (200, body) -> Ok body
  | Ok (status, body) -> Error (Http_error (status, String.trim body))
  | Error _ as e -> e

let submit ep ?(tenant = "anon") ?(tiny = false) ?select ?ids ?key ?deadline_s
    ?request_id ?on_request_id ?io_timeout_s ?on_event () =
  (* the trace id is minted here, at the client, unless the caller brings
     one; it travels both as a header (echoed on the response, even on
     errors) and as a wire field (into the WAL accept record) *)
  let rid = match request_id with Some r -> r | None -> Context.fresh () in
  with_conn ?io_timeout_s ep (fun c ->
      let body =
        Json.to_string
          (Wire.encode_submit
             (Wire.submit ~tiny ?select ?ids ?key ?deadline_s ~request_id:rid ()))
      in
      Http.write_request c ~meth:"POST" ~path:"/v1/campaign"
        ~headers:
          [
            ("content-type", "application/json");
            ("x-tenant", tenant);
            ("x-request-id", rid);
          ]
        body;
      let head = Http.read_response_head c in
      Option.iter
        (fun f -> f (Option.value (Http.resp_header head "x-request-id") ~default:rid))
        on_request_id;
      if head.Http.status = 429 then begin
        let retry =
          match Http.resp_header head "retry-after" with
          | Some s -> Option.value (float_of_string_opt s) ~default:1.
          | None -> 1.
        in
        ignore (Http.read_body c head);
        Error (Busy retry)
      end
      else if head.Http.status <> 200 then
        Error (Http_error (head.Http.status, String.trim (Http.read_body c head)))
      else if Http.resp_header head "transfer-encoding" <> Some "chunked" then
        Error (Protocol "expected a chunked verdict stream")
      else begin
        (* ndjson events can split across chunk boundaries: keep the
           unterminated tail in [buf] and parse only complete lines *)
        let buf = Buffer.create 1024 in
        let verdicts = Hashtbl.create 16 in
        let expected = ref None in
        let finished = ref false in
        let err = ref None in
        let handle_line line =
          if String.trim line <> "" && !err = None then
            match Result.bind (Json.parse line) Wire.decode_event with
            | Error e -> err := Some (Protocol ("bad event: " ^ e))
            | Ok ev -> (
              Option.iter (fun f -> f ev) on_event;
              match ev with
              | Wire.Accepted { jobs } -> expected := Some jobs
              | Wire.Verdict { index; outcome } -> Hashtbl.replace verdicts index outcome
              | Wire.Done _ -> finished := true)
        in
        let rec read_stream () =
          match Http.read_chunk c with
          | None -> ()
          | Some data ->
            Buffer.add_string buf data;
            let s = Buffer.contents buf in
            let rec split from =
              match String.index_from_opt s from '\n' with
              | Some i ->
                handle_line (String.sub s from (i - from));
                split (i + 1)
              | None -> String.sub s from (String.length s - from)
            in
            let rest = split 0 in
            Buffer.clear buf;
            Buffer.add_string buf rest;
            read_stream ()
        in
        read_stream ();
        handle_line (Buffer.contents buf);
        match !err with
        | Some e -> Error e
        | None ->
          if not !finished then Error (Protocol "stream ended before the done event")
          else begin
            let n = Option.value !expected ~default:(Hashtbl.length verdicts) in
            let rec collect i acc =
              if i < 0 then Ok acc
              else
                match Hashtbl.find_opt verdicts i with
                | Some o -> collect (i - 1) (o :: acc)
                | None -> Error (Protocol (Printf.sprintf "missing verdict %d of %d" i n))
            in
            collect (n - 1) []
          end
      end)

(* -- idempotent retry ------------------------------------------------------- *)

let job_status ?io_timeout_s ep key =
  match get ?io_timeout_s ep ("/v1/jobs/" ^ key) with
  | Ok (200, body) -> (
    match Result.bind (Json.parse (String.trim body)) Wire.decode_status with
    | Ok st -> Ok (Some st)
    | Error e -> Error (Protocol ("bad job status: " ^ e)))
  | Ok (404, _) -> Ok None
  | Ok (status, body) -> Error (Http_error (status, String.trim body))
  | Error _ as e -> e

(* Index-ordered outcomes from a finished status body — the same shape
   [submit] returns from a live stream. *)
let outcomes_of_status (st : Wire.job_status) =
  let arr = Array.make st.Wire.jobs None in
  List.iter
    (fun (i, o) -> if i >= 0 && i < st.Wire.jobs then arr.(i) <- Some o)
    st.Wire.verdicts;
  let rec collect i acc =
    if i < 0 then Ok acc
    else
      match arr.(i) with
      | Some o -> collect (i - 1) (o :: acc)
      | None -> Error (Protocol (Printf.sprintf "missing verdict %d of %d" i st.Wire.jobs))
  in
  collect (st.Wire.jobs - 1) []

let retryable = function
  | Busy _ | Connection _ | Protocol _ -> true
  | Http_error ((408 | 500 | 502 | 503 | 504), _) -> true
  | Http_error _ -> false

let submit_with_retry ep ?(attempts = 10) ?(tenant = "anon") ?(tiny = false) ?select ?ids
    ~key ?deadline_s ?request_id ?on_request_id ?(io_timeout_s = 30.) ?on_event () =
  (* mint the trace id once, outside the retry loop: every attempt of the
     same logical request carries the same id, so the daemon's WAL and
     flight recorder show retries as one correlated story *)
  let rid = match request_id with Some r -> r | None -> Context.fresh () in
  let rec go attempt backoff =
    let retry e backoff_floor =
      if attempt >= attempts then Error e
      else begin
        Unix.sleepf (Float.min 10. (Float.max backoff_floor backoff));
        go (attempt + 1) (Float.min 10. (backoff *. 2.))
      end
    in
    match
      submit ep ~tenant ~tiny ?select ?ids ~key ?deadline_s ~request_id:rid
        ?on_request_id ~io_timeout_s ?on_event ()
    with
    | Ok _ as ok -> ok
    | Error (Busy retry_after) -> retry (Busy retry_after) retry_after
    | Error e when not (retryable e) -> Error e
    | Error e -> (
      (* the stream died, but the daemon may still hold (or be computing)
         the verdicts under our key: poll before resubmitting, so a retry
         never re-runs work *)
      match job_status ~io_timeout_s ep key with
      | Ok (Some st) when st.Wire.finished -> outcomes_of_status st
      | _ -> retry e 0.05)
  in
  go 1 0.05
