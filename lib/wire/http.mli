(** Hand-rolled HTTP/1.1 over [Unix] file descriptors — the wire layer of the
    verification daemon and its client.  No event loop and no external
    dependency: every connection is driven by one blocking domain, requests
    are read with a small buffered reader, and campaign verdict streams go
    out as chunked responses.

    The subset implemented is exactly what the daemon and the bench driver
    need: request line + headers + [Content-Length] bodies on the way in,
    fixed-length or chunked responses on the way out, and the mirror image
    on the client side.  Everything else (request chunking, multiline
    headers, HTTP/1.0 keep-alive) is rejected as {!Bad} — the daemon parses
    untrusted bytes, so unknown constructs fail closed. *)

exception Closed
(** Peer closed the connection (EOF mid-message, or before any byte). *)

exception Bad of string
(** Malformed or over-limit HTTP — the handler answers 400 and drops the
    connection. *)

exception Timeout of string
(** A per-connection I/O deadline expired (payload ["read"] or ["write"]).
    The server answers 408 where possible and drops the connection, so a
    slow-loris or dead peer cannot pin a handler domain. *)

type conn
(** A buffered connection wrapper around a socket. *)

val conn : ?read_timeout_s:float -> ?write_timeout_s:float -> Unix.file_descr -> conn
(** Wrap a socket.  With [read_timeout_s] ([write_timeout_s]) every read
    (write) first waits for readiness with [select] and raises {!Timeout}
    when the peer produces (accepts) nothing for that long; without them
    I/O blocks indefinitely (the pre-daemon behaviour).  The first call sets
    the process to ignore SIGPIPE, so a write to a peer that has hung up
    raises [Unix_error (EPIPE, _, _)] instead of killing the process. *)

val fd : conn -> Unix.file_descr

val close : conn -> unit
(** Close the underlying descriptor (idempotent; errors ignored). *)

val set_response_header : conn -> string -> string -> unit
(** Stamp a header (name lowercased; last value per name wins) onto every
    response this connection subsequently sends via {!respond} or
    {!start_chunked} — including error responses written by catch-all
    handlers that never saw the request.  How [X-Request-Id] reaches 400,
    408 and 500 replies.  Headers passed explicitly to {!respond} /
    {!start_chunked} win over stamped ones of the same name. *)

(** {1 Requests (server side)} *)

type request = {
  meth : string;  (** verb, uppercased by the sender, matched verbatim *)
  path : string;  (** request target as sent, e.g. ["/v1/campaign"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;  (** [""] when no [Content-Length] *)
}

val read_request : ?max_body:int -> conn -> request
(** Read one request.  Raises {!Closed} on EOF before the first byte (the
    peer hung up between requests) and {!Bad} on malformed input, a header
    section over 16 KiB, more than 100 headers, a body over [max_body]
    (default 4 MiB) or a [Transfer-Encoding] request body. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

(** {1 Responses} *)

val status_text : int -> string

val respond :
  conn -> status:int -> ?headers:(string * string) list -> string -> unit
(** Write a complete fixed-length response with [Content-Length] and
    [Connection: close]. *)

val start_chunked :
  conn -> status:int -> ?headers:(string * string) list -> unit -> unit
(** Write the response head with [Transfer-Encoding: chunked]; follow with
    {!chunk} calls and a final {!finish_chunked}. *)

val chunk : conn -> string -> unit
(** Send one chunk.  Empty strings are skipped (an empty chunk would
    terminate the stream). *)

val finish_chunked : conn -> unit
(** Send the terminal zero-length chunk. *)

(** {1 Responses (client side)} *)

type response_head = {
  status : int;
  resp_headers : (string * string) list;  (** names lowercased *)
}

val write_request :
  conn ->
  meth:string ->
  path:string ->
  ?headers:(string * string) list ->
  string ->
  unit
(** Write a request with [Content-Length] and [Connection: close]. *)

val read_response_head : conn -> response_head

val resp_header : response_head -> string -> string option

val read_chunk : conn -> string option
(** Next chunk of a [Transfer-Encoding: chunked] body; [None] after the
    terminal chunk (trailers are consumed and discarded). *)

val read_body : conn -> response_head -> string
(** Whole response body: joins chunks when chunked, reads [Content-Length]
    bytes when fixed, reads to EOF otherwise (we always send
    [Connection: close]). *)
