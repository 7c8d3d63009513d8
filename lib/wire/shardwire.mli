(** Wire codec for the distributed shard tier.

    A coordinator↔worker exchange is one HTTP/1.1 POST whose body is a
    {!msg}: a small JSON control part plus an optional bulk part in the
    [mechaseg] segment format ({!Mechaml_util.Segment.to_string}) — so
    frontier batches, edge deltas, boundary bitset deltas and whole CSR
    segments travel with the same versioned header and MD5 digest as spill
    files, verified on receipt.  Corruption anywhere surfaces as
    {!Wire_error}, never as wrong data. *)

exception Wire_error of string
(** Malformed or corrupt wire bytes (bad frame, failed digest, inconsistent
    automaton, unexpected reply).  Fail closed: a verdict is never computed
    from a frame that did not verify. *)

type msg = {
  meta : Mechaml_obs.Json.t;  (** control part *)
  data : Mechaml_util.Segment.payload;  (** bulk part; [[]] when absent *)
}

val msg : ?data:Mechaml_util.Segment.payload -> Mechaml_obs.Json.t -> msg

val encode : msg -> string

val decode : string -> msg
(** Raises {!Wire_error} on anything that does not verify, including the
    segment digest. *)

(** {1 Control-JSON accessors}

    All raise {!Wire_error} when the field is missing or ill-typed. *)

val jint : Mechaml_obs.Json.t -> string -> int

val jint_opt : Mechaml_obs.Json.t -> string -> int option

val jstr : Mechaml_obs.Json.t -> string -> string

val jints : Mechaml_obs.Json.t -> string -> int list

val num : int -> Mechaml_obs.Json.t

val nums : int list -> Mechaml_obs.Json.t

val ints : Mechaml_util.Segment.payload -> string -> int array

val ints_opt : Mechaml_util.Segment.payload -> string -> int array option

val bits : Mechaml_util.Segment.payload -> string -> Mechaml_util.Bitvec.t

(** {1 Automaton codec}

    Order-preserving (adjacency lists round-trip in exact enumeration
    order, unlike {!Mechaml_ts.Textio}), so workers re-enumerate joint
    moves byte-identically to the coordinator.  Escape rows travel as
    exclusion sets and destinations.  [automaton_of_json] raises
    {!Wire_error} on any inconsistency {!Mechaml_ts.Automaton.of_packed}
    rejects (out-of-range destinations, excluded patterns outside [℘(I)]
    or out of order). *)

val json_of_automaton : Mechaml_ts.Automaton.t -> Mechaml_obs.Json.t

val automaton_of_json : Mechaml_obs.Json.t -> Mechaml_ts.Automaton.t

(** {1 Addresses and transport} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> addr
(** A string with a ['/'] is a Unix socket path; otherwise [host:port]
    (empty host means loopback). *)

val addr_to_string : addr -> string

val connect : addr -> Unix.file_descr

val listen : addr -> Unix.file_descr
(** Bound, listening server socket (stale Unix socket paths are unlinked
    first). *)

val call : ?deadline_s:float -> addr -> path:string -> msg -> msg * int * int
(** One round trip: POST the message, return [(reply, bytes_tx, bytes_rx)].
    Raises {!Wire_error} on a non-200 reply or a frame that fails to verify;
    transport-level failures ([Unix.Unix_error], {!Http.Closed},
    {!Http.Timeout}) escape as themselves — the coordinator reads those as a
    dead or stalled worker. *)
