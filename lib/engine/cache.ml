module Metrics = Mechaml_obs.Metrics

let m_hits = Metrics.counter "engine_cache_hits_total" ~help:"Campaign cache lookups answered."

let m_misses =
  Metrics.counter "engine_cache_misses_total" ~help:"Campaign cache lookups that computed."

let m_evictions =
  Metrics.counter "engine_cache_evictions_total"
    ~help:"Entries dropped by the LRU bound of a capacity-limited cache."

(* Each table keeps its keys on an intrusive doubly-linked recency list so a
   capacity bound can evict the least-recently-used entry.  A hit moves its
   key to the front (touch-on-hit); eviction pops the back.  Eviction only
   bounds memory: a dropped entry is recomputed on the next lookup, never
   answered wrongly. *)
type node = {
  nkey : string;
  mutable prev : node option;  (* toward the MRU end *)
  mutable next : node option;  (* toward the LRU end *)
}

type 'v table = {
  entries : (string, 'v * node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
}

type t = {
  mutex : Mutex.t;
  capacity : int option;  (** per-table bound on stored entries *)
  closures : Mechaml_ts.Automaton.t table;
  checks : Mechaml_mc.Checker.outcome table;
  mutable closure_hits : int;
  mutable closure_misses : int;
  mutable check_hits : int;
  mutable check_misses : int;
  mutable evictions : int;
}

let make_table () = { entries = Hashtbl.create 64; mru = None; lru = None }

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Cache.create: capacity must be positive"
  | _ -> ());
  {
    mutex = Mutex.create ();
    capacity;
    closures = make_table ();
    checks = make_table ();
    closure_hits = 0;
    closure_misses = 0;
    check_hits = 0;
    check_misses = 0;
    evictions = 0;
  }

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* -- recency list (all called under the lock) ----------------------------- *)

let unlink table node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> table.mru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> table.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front table node =
  node.prev <- None;
  node.next <- table.mru;
  (match table.mru with Some m -> m.prev <- Some node | None -> table.lru <- Some node);
  table.mru <- Some node

let touch table node =
  match table.mru with
  | Some m when m == node -> ()
  | _ ->
    unlink table node;
    push_front table node

(* Called under the lock. *)
let store t table key v =
  let node = { nkey = key; prev = None; next = None } in
  Hashtbl.replace table.entries key (v, node);
  push_front table node;
  match t.capacity with
  | Some cap when Hashtbl.length table.entries > cap -> (
    match table.lru with
    | Some oldest ->
      unlink table oldest;
      Hashtbl.remove table.entries oldest.nkey;
      t.evictions <- t.evictions + 1;
      Metrics.incr m_evictions
    | None -> assert false)
  | _ -> ()

(* Lookup and counter updates hold the lock; [compute] does not — memoized
   work can be long, and serializing it would defeat the worker pool.  Two
   domains racing on the same fresh key both compute; the first store wins for
   future lookups, but each computing caller keeps the value its own [compute]
   returned.  Handing the loser the winner's (structurally identical) value
   would break callers that rely on physical identity between [compute]'s
   result and what they get back — [Loop]'s incremental-closure handle does
   exactly that, and swapping the object behind its back made it derive an
   empty dirty delta and serve stale product rows. *)
let find_or_compute t table bump_hit bump_miss ~key compute =
  match
    locked t (fun () ->
        match Hashtbl.find_opt table.entries key with
        | Some (v, node) ->
          touch table node;
          bump_hit ();
          Some v
        | None -> None)
  with
  | Some v ->
    Metrics.incr m_hits;
    (v, true)
  | None ->
    let v = compute () in
    locked t (fun () ->
        bump_miss ();
        match Hashtbl.find_opt table.entries key with
        | Some (_, node) -> touch table node
        | None -> store t table key v);
    Metrics.incr m_misses;
    (v, false)

let closure t ~key compute =
  find_or_compute t t.closures
    (fun () -> t.closure_hits <- t.closure_hits + 1)
    (fun () -> t.closure_misses <- t.closure_misses + 1)
    ~key compute

let check t ~key compute =
  find_or_compute t t.checks
    (fun () -> t.check_hits <- t.check_hits + 1)
    (fun () -> t.check_misses <- t.check_misses + 1)
    ~key compute

type stats = {
  closure_hits : int;
  closure_misses : int;
  check_hits : int;
  check_misses : int;
  entries : int;
  evictions : int;
}

let stats t =
  locked t (fun () ->
      {
        closure_hits = t.closure_hits;
        closure_misses = t.closure_misses;
        check_hits = t.check_hits;
        check_misses = t.check_misses;
        entries = Hashtbl.length t.closures.entries + Hashtbl.length t.checks.entries;
        evictions = t.evictions;
      })

let hits s = s.closure_hits + s.check_hits

let lookups s = s.closure_hits + s.closure_misses + s.check_hits + s.check_misses

let hit_rate s =
  let l = lookups s in
  if l = 0 then 0. else float_of_int (hits s) /. float_of_int l

(* -- persistence ----------------------------------------------------------- *)

(* Snapshot layout: a text header line (so [load] can reject a foreign file
   before unmarshalling anything), then one marshalled tuple of both tables'
   entries in LRU→MRU order.  [save] goes through a temp file + atomic rename
   — the same crash-safety discipline as [Knowledge_io.save_atomic] — so a
   daemon killed mid-snapshot leaves the previous snapshot intact.  The
   header's version changes whenever the key scheme or an entry's type
   does: version 2 keys checks by context digest and closure key instead of
   by product, and a version-1 file would only restore entries no lookup
   can reach; version 3 stores closures with escape rows (the automaton
   record gained [escapes]), and unmarshalling a version-2 closure at the
   new type would be undefined behaviour, so the header check comes before
   any [Marshal] read. *)

let snapshot_header = "mechaml-cache 3"

(* Under the lock: entries ordered LRU-first, so replaying them through
   [store] reproduces the recency order exactly. *)
let dump (table : _ table) =
  let rec walk acc = function
    | None -> acc  (* walked from the LRU end toward the MRU end *)
    | Some node ->
      let v, _ = Hashtbl.find table.entries node.nkey in
      walk ((node.nkey, v) :: acc) node.prev
  in
  Array.of_list (List.rev (walk [] table.lru))

let save t ~path =
  let closures, checks = locked t (fun () -> (dump t.closures, dump t.checks)) in
  let dir = Filename.dirname path in
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ());
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (snapshot_header ^ "\n");
      Marshal.to_channel oc (closures, checks) []);
  Sys.rename tmp path

let load t ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error (path ^ ": empty snapshot")
        | header when header <> snapshot_header ->
          Error (Printf.sprintf "%s: not a cache snapshot (header %S)" path header)
        | _ -> (
          match
            (Marshal.from_channel ic
              : (string * Mechaml_ts.Automaton.t) array
                * (string * Mechaml_mc.Checker.outcome) array)
          with
          | exception _ -> Error (path ^ ": truncated or corrupt snapshot")
          | closures, checks ->
            let restore (table : _ table) entries =
              (* LRU-first replay through [store] rebuilds the recency list;
                 a capacity-bounded cache keeps the most recent entries and
                 the truncation does not count as eviction churn. *)
              let skip =
                match t.capacity with
                | Some cap when Array.length entries > cap -> Array.length entries - cap
                | _ -> 0
              in
              Array.iteri
                (fun i (key, v) ->
                  if i >= skip && not (Hashtbl.mem table.entries key) then begin
                    let node = { nkey = key; prev = None; next = None } in
                    Hashtbl.replace table.entries key (v, node);
                    push_front table node
                  end)
                entries;
              Array.length entries - skip
            in
            Ok
              (locked t (fun () ->
                   restore t.closures closures + restore t.checks checks))))
