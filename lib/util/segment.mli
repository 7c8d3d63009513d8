(** Out-of-core segment tier: spill files and LRU shard residency.

    The sharded product exploration partitions its CSR arrays and sat-set
    bit vectors into per-shard {e segments}.  Under a memory budget, cold
    segments serialize to compact spill files (tmp+rename, versioned header,
    content digest) and reload on demand; the manager keeps residency under
    the budget watermark with least-recently-used eviction.

    Payloads registered with a manager must be treated as {e immutable}:
    eviction merely drops the in-memory copy (the spill file, written once,
    stays authoritative), so a payload borrowed from {!get} remains valid
    even if the slot is evicted while in use.

    A corrupt or truncated spill file is always surfaced as an error —
    {!load} returns [Error] and {!get} raises {!Spill_error} — never as
    silently wrong data. *)

type field =
  | Ints of int array
  | Bits of Bitvec.t

type payload = (string * field) list

exception Spill_error of string
(** Raised by {!get} when a segment's spill file cannot be read back
    (missing, truncated, or failing its digest). *)

val payload_bytes : payload -> int
(** Approximate heap footprint of a payload, the unit of budget accounting. *)

(** {1 Spill-file codec} *)

val to_string : payload -> string
(** Serialize a payload to the self-describing [mechaseg] wire/file format:
    a versioned header carrying the body length and an MD5 digest, then the
    body.  This exact byte string is what {!save} writes and what the
    distributed tier ships between processes. *)

val of_string : ?what:string -> string -> (payload, string) result
(** Decode a [mechaseg] byte string, verifying header, length, and digest
    ([what] names the source in error messages).  Trailing bytes beyond the
    declared body length are ignored, mirroring {!load}. *)

val save : path:string -> payload -> unit
(** Serialize atomically: write [path ^ ".tmp"], then rename onto [path].
    The file carries a versioned header and an MD5 digest of the payload. *)

val load : path:string -> (payload, string) result
(** Read a spill file back, verifying header, length, and digest. *)

(** {1 Residency manager} *)

type t

type slot

val create :
  ?budget:int ->
  ?dir:string ->
  ?on_spill:(int -> unit) ->
  ?on_reload:(int -> unit) ->
  name:string ->
  unit ->
  t
(** A manager named [name] (names spill files).  [budget] is the residency
    watermark in bytes; without it nothing ever spills.  Spill files live in
    a fresh private subdirectory of [dir] (default: the system temp dir),
    created lazily on first spill and removed by {!close}.  [on_spill] /
    [on_reload] observe each segment transfer with its byte size. *)

val add : t -> name:string -> payload -> slot
(** Register an immutable payload.  May evict colder slots (or, over
    budget, the new slot itself) to spill files. *)

val get : t -> slot -> payload
(** The slot's payload, reloading from its spill file if evicted; marks the
    slot most-recently-used.  Raises {!Spill_error} on a damaged file. *)

val scratch_path : t -> name:string -> string
(** A fresh path inside the manager's spill directory (created on demand)
    for caller-managed scratch files; {!close} removes them with the rest. *)

val resident_bytes : t -> int

val spills : t -> int
(** Number of segment spill writes performed by this manager. *)

val reloads : t -> int

val spill_dir : t -> string option
(** The manager's private spill directory, if it was ever created. *)

val close : t -> unit
(** Delete every spill file and the private directory.  Idempotent; the
    manager stays usable in-memory (slots keep resident payloads but can no
    longer spill or reload). *)

(** {1 Process-wide counters}

    Totals across all managers — observable without enabling the metrics
    registry (tests assert spill engagement and residency through these).
    The spill and reload counts are monotonic. *)

val total_spills : unit -> int

val total_reloads : unit -> int

val total_resident : unit -> int
(** Resident bytes of every manager not yet {!close}d. *)

val peak_resident : unit -> int
(** The highest {!total_resident} after an {!add} or a reload since
    {!reset_peak} restarted it from the current one.  Never above the budget
    while only one budgeted manager is open. *)

val reset_peak : unit -> unit
