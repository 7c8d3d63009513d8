(* The worker half of the distributed shard tier: a [mechaverify
   shard-worker] process (or an in-process domain in tests).  During a
   product build it is a stateless frontier expander: an [expand] request
   carries shards' frontier keys and gets back joint-move counts and
   successor keys, computed from the session's operand automata alone.
   After the build it holds the forward and predecessor CSR segments of the
   shards it owns, under its own memory budget, and runs the shard-local
   part of the global fixpoints on the {!Mechaml_mc.Worklist} kernel: its
   adopted shards are the kernel's owned blocks, its outboxes the kernel's
   [emit], and the coordinator's boundary items the kernel's [feed].  Every
   request is validated against the session before the kernel sees it.
   All state is per-session, so one worker serves any number of concurrent
   coordinators. *)

module Bitvec = Mechaml_util.Bitvec
module Eval = Mechaml_mc.Eval
module Worklist = Mechaml_mc.Worklist
module Segment = Mechaml_util.Segment
module Ivec = Mechaml_util.Ivec
module Json = Mechaml_obs.Json
module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Http = Mechaml_wire.Http
module Wire = Mechaml_wire.Shardwire

exception Die
(* test chaos hook: simulate a crash mid-build (see [die_after] below) *)

(* -- per-session state ------------------------------------------------------ *)

(* The global maps from the [ctx] op, checked to be a partition: [sizes.(k)]
   states in shard [k], numbered [0 .. sizes.(k) - 1] by [local]. *)
type ctx = {
  owner : int array;
  local : int array;
  sizes : int array;
  blocking : Bitvec.t;  (* set for owned states as their shards are adopted *)
}

type sess = {
  nr : int;
  pairs : int;  (* |L| * |R|: the packed pair key space *)
  shards : int;
  mgr : Segment.t;
  join : Compose.join;
  seg : Segment.slot option array;  (* adopted shards' forward + predecessor CSR *)
  mutable ctx : ctx option;
  mutable fix : Worklist.run option;
  outboxes : Ivec.t array;  (* boundary items per destination shard *)
  mutable rounds : int;
  mutable uniq : int;  (* uniquifies segment names across re-installs *)
  die_after : int option;
}

let bad fmt = Printf.ksprintf (fun m -> raise (Wire.Wire_error ("worker: " ^ m))) fmt

let ints_field data name = Wire.ints data name

(* The shard [k] a request field named [prefix ^ k] is addressed to. *)
let shard_of_field s ~prefix name =
  let p = String.length prefix in
  match
    if String.length name > p && String.sub name 0 p = prefix then
      int_of_string_opt (String.sub name p (String.length name - p))
    else None
  with
  | Some k when k >= 0 && k < s.shards -> k
  | _ -> bad "bad field %S" name

(* -- build phase: stateless frontier expansion ------------------------------ *)

(* test/smoke hook: slow build rounds down so an external harness has a
   window to kill a worker mid-build.  Read once at start-up, not through a
   [lazy]: in-process workers run on separate domains, and two of them
   forcing one lazy value at once raise [CamlinternalLazy.Undefined]. *)
let throttle_s =
  match Sys.getenv_opt "MECHAVERIFY_DIST_THROTTLE_MS" with
  | Some v -> ( match int_of_string_opt v with Some ms when ms > 0 -> float_of_int ms /. 1000. | _ -> 0.)
  | None -> 0.

(* Expand every frontier in the request: field [f<k>] holds shard [k]'s
   frontier as packed pair keys; the reply's [c<k>] is the joint-move count
   per frontier state and [s<k>] the successor keys, both in frontier order
   (the coordinator's merge consumes them in exactly this order).  The
   answer depends on the session's automata and the request only, so a
   replacement worker answers a resent request identically. *)
let expand s data =
  s.rounds <- s.rounds + 1;
  (match s.die_after with
  | Some r when s.rounds > r -> raise Die
  | _ -> ());
  if throttle_s > 0. then Unix.sleepf throttle_s;
  List.concat_map
    (fun (name, _) ->
      let k = shard_of_field s ~prefix:"f" name in
      let succ = Ivec.create () in
      let counts =
        Array.map
          (fun key ->
            if key < 0 || key >= s.pairs then
              raise (Wire.Wire_error "worker: frontier key out of range");
            Compose.moves s.join (key / s.nr) (key mod s.nr) (fun _ _ l r ->
                Ivec.push succ ((l * s.nr) + r)))
          (ints_field data name)
      in
      [
        (Printf.sprintf "c%d" k, Segment.Ints counts);
        (Printf.sprintf "s%d" k, Segment.Ints (Ivec.to_array succ));
      ])
    data

(* -- install: the coordinator's context and finished segments ------------- *)

(* Install the global owner/local maps.  Adopted shards and a running
   fixpoint belong to the previous maps and are dropped; the coordinator
   always follows a [ctx] with its [adopt_seg]s. *)
let set_ctx s data =
  let owner = ints_field data "owner" and local = ints_field data "local" in
  let n = Array.length owner in
  if Array.length local <> n then bad "owner and local maps differ in length";
  let sizes = Array.make s.shards 0 in
  Array.iter
    (fun k ->
      if k < 0 || k >= s.shards then bad "owner map names shard %d" k;
      sizes.(k) <- sizes.(k) + 1)
    owner;
  let base = Array.make s.shards 0 in
  for k = 1 to s.shards - 1 do
    base.(k) <- base.(k - 1) + sizes.(k - 1)
  done;
  let seen = Bitvec.create n in
  Array.iteri
    (fun g k ->
      let m = local.(g) in
      if m < 0 || m >= sizes.(k) || Bitvec.get seen (base.(k) + m) then
        bad "local map is not a numbering of each shard";
      Bitvec.set seen (base.(k) + m))
    owner;
  Array.fill s.seg 0 s.shards None;
  s.fix <- None;
  s.ctx <- Some { owner; local; sizes; blocking = Bitvec.create n }

let require_ctx s =
  match s.ctx with Some c -> c | None -> bad "op before the owner/local context"

(* [row] has an offset per source plus one, monotone from 0 and within
   [ids] (which may carry padding); every indexed id is a state. *)
let check_csr ~what ~n ~rows row ids =
  if Array.length row <> rows + 1 || row.(0) <> 0 || row.(rows) > Array.length ids then
    bad "%s offsets do not fit the shard" what;
  for m = 0 to rows - 1 do
    if row.(m + 1) < row.(m) then bad "%s offsets are not monotone" what
  done;
  for e = 0 to row.(rows) - 1 do
    if ids.(e) < 0 || ids.(e) >= n then bad "%s names state %d of %d" what ids.(e) n
  done

(* Take ownership of shard [k] with the coordinator's finished, digest-checked
   forward and predecessor segments (after the build, and again on a
   replacement worker).  The members must be exactly the shard of the
   context's maps. *)
let adopt_seg s k data =
  let c = require_ctx s in
  if k < 0 || k >= s.shards then bad "adopted shard out of range";
  let n = Array.length c.owner in
  let members = ints_field data "members" in
  let size = Array.length members in
  if size <> c.sizes.(k) then bad "shard %d has %d members, the context %d" k size c.sizes.(k);
  Array.iteri
    (fun m g ->
      if g < 0 || g >= n || c.owner.(g) <> k || c.local.(g) <> m then
        bad "member %d of shard %d disagrees with the context" m k)
    members;
  let row = ints_field data "row" and prow = ints_field data "prow" in
  check_csr ~what:"forward" ~n ~rows:size row (ints_field data "dst");
  check_csr ~what:"predecessor" ~n ~rows:size prow (ints_field data "psrc");
  Array.iteri
    (fun m g ->
      if row.(m + 1) = row.(m) then Bitvec.set c.blocking g else Bitvec.clear c.blocking g)
    members;
  s.uniq <- s.uniq + 1;
  s.seg.(k) <-
    Some
      (Segment.add s.mgr
         ~name:(Printf.sprintf "seg%d_%d" k s.uniq)
         (List.map
            (fun f -> (f, Segment.Ints (ints_field data f)))
            [ "members"; "row"; "dst"; "prow"; "psrc" ]))

(* -- satisfaction sweeps and fixpoints: the kernel over the adopted shards -- *)

let view s k =
  match s.seg.(k) with
  | None -> bad "shard %d not installed" k
  | Some slot ->
    let p = Segment.get s.mgr slot in
    let f = ints_field p in
    { Shard.members = f "members"; row = f "row"; dst = f "dst"; prow = f "prow"; psrc = f "psrc" }

let space s =
  let c = require_ctx s in
  Worklist.blocks ~blocking:c.blocking ~owner:c.owner ~local:c.local ~sizes:c.sizes
    ~owned:(Array.map Option.is_some s.seg) (view s)

(* A global bit vector from the request, sized to the context's maps. *)
let global_bits s data name =
  let v = Wire.bits data name and n = Array.length (require_ctx s).owner in
  if Bitvec.length v <> n then bad "%s has %d bits for %d states" name (Bitvec.length v) n;
  v

let fix_init s (kind : Eval.fix) data =
  let init = global_bits s data "seed" in
  let guard =
    match (kind, List.mem_assoc "guard" data) with
    | (Eu | Au), true -> Some (global_bits s data "guard")
    | (Eu | Au), false -> bad "eu/au without a guard"
    | (Ef | Eg), _ -> None
  in
  let c = require_ctx s in
  let emit p = Ivec.push s.outboxes.(c.owner.(p)) p in
  s.fix <- Some (Worklist.start (space s) kind ~init ~guard ~emit)

let fix_run s = match s.fix with Some r -> r | None -> bad "fixpoint op before fix_init"

(* Feed shard [k]'s incoming boundary items, then run kernel rounds until
   every owned stack is empty.  Cross-worker work lands in the outboxes;
   all four fixpoints are confluent, so the drain order (which differs from
   the single-process schedule) cannot change the converged set. *)
let fix_round s data =
  let r = fix_run s in
  let c = require_ctx s in
  (* every item is checked before any is fed, so a refused round leaves
     the fixpoint as it was *)
  let incoming =
    List.map
      (fun (name, _) ->
        let k = shard_of_field s ~prefix:"in" name in
        if s.seg.(k) = None then bad "boundary items for shard %d, not adopted" k;
        let items = ints_field data name in
        Array.iter
          (fun g ->
            if g < 0 || g >= Array.length c.owner || c.owner.(g) <> k then
              bad "boundary item %d is not a state of shard %d" g k)
          items;
        items)
      data
  in
  List.iter (Array.iter (Worklist.feed r)) incoming;
  while Worklist.round r > 0 do
    ()
  done;
  List.filter_map
    (fun k ->
      let o = s.outboxes.(k) in
      if Ivec.length o = 0 then None
      else begin
        let a = Ivec.to_array o in
        Ivec.clear o;
        Some (Printf.sprintf "out%d" k, Segment.Ints a)
      end)
    (List.init s.shards Fun.id)

let fix_done s =
  let r = fix_run s in
  s.fix <- None;
  [ ("out", Segment.Bits (Worklist.result r)) ]

(* -- the server loop -------------------------------------------------------- *)

type t = {
  listen_fd : Unix.file_descr;
  sessions : (string, sess) Hashtbl.t;
  ppid : int option;
  stop : bool Atomic.t;  (* set by the shutdown op, and cross-domain by [stop] *)
}

let handle_msg t (m : Wire.msg) : Wire.msg =
  let meta = m.Wire.meta and data = m.Wire.data in
  let op = Wire.jstr meta "op" in
  let ok ?(fields = []) extra = Wire.msg ~data:extra (Json.Obj (("ok", Json.Bool true) :: fields)) in
  let session () =
    let sid = Wire.jstr meta "sid" in
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> s
    | None -> raise (Wire.Wire_error (Printf.sprintf "worker: unknown session %S" sid))
  in
  match op with
  | "ping" -> ok []
  | "open" ->
    let sid = Wire.jstr meta "sid" in
    let shards = Wire.jint meta "shards" in
    if shards < 1 then raise (Wire.Wire_error "worker: shards must be >= 1");
    let left =
      match Json.member "left" meta with
      | Some j -> Wire.automaton_of_json j
      | None -> raise (Wire.Wire_error "worker: open without left automaton")
    in
    let right =
      match Json.member "right" meta with
      | Some j -> Wire.automaton_of_json j
      | None -> raise (Wire.Wire_error "worker: open without right automaton")
    in
    let budget = Wire.jint_opt meta "budget" in
    (match Hashtbl.find_opt t.sessions sid with
    | Some old -> Segment.close old.mgr
    | None -> ());
    let nr = Automaton.num_states right in
    let s =
      {
        nr;
        pairs = Automaton.num_states left * nr;
        shards;
        mgr = Segment.create ?budget ~name:(Printf.sprintf "distw-%d" (Unix.getpid ())) ();
        join = Compose.join left right;
        seg = Array.make shards None;
        ctx = None;
        fix = None;
        outboxes = Array.init shards (fun _ -> Ivec.create ());
        rounds = 0;
        uniq = 0;
        die_after = Wire.jint_opt meta "die_after_rounds";
      }
    in
    Hashtbl.replace t.sessions sid s;
    ok []
  | "expand" -> ok (expand (session ()) data)
  | "ctx" ->
    set_ctx (session ()) data;
    ok []
  | "adopt_seg" ->
    let s = session () in
    adopt_seg s (Wire.jint meta "shard") data;
    ok []
  | "agg" ->
    let s = session () in
    let forall =
      match Wire.jstr meta "kind" with
      | "forall" -> true
      | "exists" -> false
      | k -> raise (Wire.Wire_error ("worker: unknown agg kind " ^ k))
    in
    ok [ ("out", Segment.Bits (Worklist.agg (space s) ~forall (global_bits s data "x"))) ]
  | "fix_init" ->
    let kind : Eval.fix =
      match Wire.jstr meta "kind" with
      | "ef" -> Ef
      | "eu" -> Eu
      | "eg" -> Eg
      | "au" -> Au
      | k -> bad "unknown fixpoint kind %s" k
    in
    fix_init (session ()) kind data;
    ok []
  | "fix_round" -> ok (fix_round (session ()) data)
  | "fix_done" -> ok (fix_done (session ()))
  | "close" ->
    let sid = Wire.jstr meta "sid" in
    (match Hashtbl.find_opt t.sessions sid with
    | Some s ->
      Segment.close s.mgr;
      Hashtbl.remove t.sessions sid
    | None -> ());
    ok []
  | "shutdown" ->
    Atomic.set t.stop true;
    ok []
  | op -> raise (Wire.Wire_error (Printf.sprintf "worker: unknown op %S" op))

(* A transport failure on one connection — the coordinator hung up, or gave
   up on this request at its deadline — drops that connection, not the
   worker. *)
let handle_conn t fd =
  let conn = Http.conn ~read_timeout_s:60. ~write_timeout_s:60. fd in
  Fun.protect
    ~finally:(fun () -> Http.close conn)
    (fun () ->
      match Http.read_request ~max_body:max_int conn with
      | exception (Http.Closed | Http.Bad _ | Http.Timeout _ | Unix.Unix_error _) -> ()
      | req -> (
        let status, body =
          match handle_msg t (Wire.decode req.Http.body) with
          | reply -> (200, Wire.encode reply)
          | exception Wire.Wire_error m -> (400, m)
          | exception Segment.Spill_error m -> (400, "spill: " ^ m)
        in
        try Http.respond conn ~status body with Http.Timeout _ | Unix.Unix_error _ -> ()))

(* Accept loop: [select] with a one-second tick so a forked worker notices
   its coordinator's death (reparenting) and exits instead of leaking. *)
let serve t =
  (* Whatever ends the loop, the listening socket closes with it: a socket
     left open with nobody accepting would make every later connect wait
     out the coordinator's deadline instead of failing at once. *)
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      Hashtbl.iter (fun _ s -> Segment.close s.mgr) t.sessions;
      Hashtbl.reset t.sessions)
    (fun () ->
      try
        while not (Atomic.get t.stop) do
          (match t.ppid with
          | Some p when Unix.getppid () <> p -> Atomic.set t.stop true
          | _ -> ());
          if not (Atomic.get t.stop) then
            match Unix.select [ t.listen_fd ] [] [] 1.0 with
            | [], _, _ -> ()
            | _ ->
              let fd, _ = Unix.accept t.listen_fd in
              handle_conn t fd
        done
      with
      | Die -> ()
      | Unix.Unix_error (Unix.EBADF, _, _) -> ())

let create ?ppid listen_fd =
  { listen_fd; sessions = Hashtbl.create 4; ppid; stop = Atomic.make false }

(* -- in-process worker (tests, and the daemon-neutrality suites) ------------ *)

type handle = { w : t; addr : Wire.addr; domain : unit Domain.t }

let start addr =
  let fd = Wire.listen addr in
  let w = create fd in
  let domain = Domain.spawn (fun () -> serve w) in
  { w; addr; domain }

let addr h = h.addr

let stop h =
  Atomic.set h.w.stop true;
  (* wake the accept loop *)
  (try
     let fd = Wire.connect h.addr in
     Unix.close fd
   with _ -> ());
  Domain.join h.domain;
  match h.addr with
  | Wire.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Wire.Tcp _ -> ()
