(* The worker half of the distributed shard tier: a [mechaverify
   shard-worker] process (or an in-process domain in tests).  During a
   product build it is a stateless frontier expander: an [expand] request
   carries shards' frontier keys and gets back joint-move counts and
   successor keys, computed from the session's operand automata alone.
   After the build it holds the forward and predecessor CSR segments of the
   shards it owns, under its own memory budget, and runs the shard-local
   part of the global fixpoints.  All state is per-session, so one worker
   serves any number of concurrent coordinators. *)

module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Ivec = Mechaml_util.Ivec
module Json = Mechaml_obs.Json
module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Http = Mechaml_wire.Http
module Wire = Mechaml_wire.Shardwire

exception Die
(* test chaos hook: simulate a crash mid-build (see [die_after] below) *)

(* -- per-session state ------------------------------------------------------ *)

type fix_kind = Ef | Eu | Eg | Au

type fix_state = {
  kind : fix_kind;
  out : Bitvec.t;  (* global-indexed; authoritative only for owned states *)
  guard : Bitvec.t option;  (* [f] of E/A (f U g) *)
  stacks : int array array;  (* per shard, local indices *)
  sps : int array;
  cnt : int array array;  (* per shard: EG successor counts / AU bad counts *)
}

type sess = {
  nr : int;
  pairs : int;  (* |L| * |R|: the packed pair key space *)
  shards : int;
  mgr : Segment.t;
  join : Compose.join;
  owned : bool array;
  fwd : Segment.slot option array;
  pred : Segment.slot option array;
  g2l : (int, int) Hashtbl.t array;  (* gid -> local, per owned shard *)
  mutable owner_g : int array;  (* global owner map, from the ctx op *)
  mutable local_g : int array;
  mutable fix : fix_state option;
  mutable rounds : int;
  mutable uniq : int;  (* uniquifies segment names across re-installs *)
  die_after : int option;
}

let ints_field data name = Wire.ints data name

let field_opt data name = Wire.ints_opt data name

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
      let k =
        match
          if String.length name > 1 && name.[0] = 'f' then
            int_of_string_opt (String.sub name 1 (String.length name - 1))
          else None
        with
        | Some k when k >= 0 && k < s.shards -> k
        | _ -> raise (Wire.Wire_error (Printf.sprintf "worker: bad expand field %S" name))
      in
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

let fwd_view s k =
  match s.fwd.(k) with
  | None -> raise (Wire.Wire_error "worker: shard not installed")
  | Some slot ->
    let p = Segment.get s.mgr slot in
    (ints_field p "members", ints_field p "row", ints_field p "dst")

let pred_view s k =
  match s.pred.(k) with
  | None -> raise (Wire.Wire_error "worker: shard has no predecessor segment")
  | Some slot ->
    let p = Segment.get s.mgr slot in
    (ints_field p "prow", ints_field p "psrc")

(* -- install: the coordinator's finished segments --------------------------- *)

(* Take ownership of shard [k] with the coordinator's finished, digest-checked
   forward and predecessor segments (after the build, and again on a
   replacement worker). *)
let adopt_seg s k data =
  if k < 0 || k >= s.shards then raise (Wire.Wire_error "worker: adopted shard out of range");
  s.owned.(k) <- true;
  let members = ints_field data "members" in
  s.uniq <- s.uniq + 1;
  s.fwd.(k) <-
    Some
      (Segment.add s.mgr
         ~name:(Printf.sprintf "fwd%d_%d" k s.uniq)
         [
           ("members", Segment.Ints members);
           ("row", Segment.Ints (ints_field data "row"));
           ("dst", Segment.Ints (ints_field data "dst"));
         ]);
  s.pred.(k) <-
    Some
      (Segment.add s.mgr
         ~name:(Printf.sprintf "pred%d_%d" k s.uniq)
         [
           ("prow", Segment.Ints (ints_field data "prow"));
           ("psrc", Segment.Ints (ints_field data "psrc"));
         ]);
  let tbl = Hashtbl.create (max 16 (Array.length members)) in
  Array.iteri (fun m g -> Hashtbl.replace tbl g m) members;
  s.g2l.(k) <- tbl

(* -- satisfaction sweeps and fixpoints -------------------------------------- *)

let require_ctx s =
  if Array.length s.owner_g = 0 then
    raise (Wire.Wire_error "worker: sat op before owner/local context")

(* One-shot structural sweep: for every owned state, quantify the operand
   vector over its successors.  Blocking states answer [true] under [forall]
   (vacuous) and [false] under [exists], matching the in-process checker. *)
let agg s ~forall x =
  let n = Bitvec.length x in
  let out = Bitvec.create n in
  for k = 0 to s.shards - 1 do
    if s.owned.(k) then begin
      let members, row, dst = fwd_view s k in
      Array.iteri
        (fun m g ->
          let hi = row.(m + 1) in
          let e = ref row.(m) in
          if forall then begin
            let ok = ref true in
            while !ok && !e < hi do
              if not (Bitvec.unsafe_get x dst.(!e)) then ok := false;
              incr e
            done;
            if !ok then Bitvec.unsafe_set out g
          end
          else begin
            let found = ref false in
            while (not !found) && !e < hi do
              if Bitvec.unsafe_get x dst.(!e) then found := true;
              incr e
            done;
            if !found then Bitvec.unsafe_set out g
          end)
        members
    end
  done;
  out

let owned_gid s g =
  let k = s.owner_g.(g) in
  s.owned.(k)

let fix_init s kind ~seed ~guard =
  require_ctx s;
  let out = Bitvec.copy seed in
  let stacks = Array.make s.shards [||] in
  let sps = Array.make s.shards 0 in
  let cnt = Array.make s.shards [||] in
  for k = 0 to s.shards - 1 do
    if s.owned.(k) then begin
      let members, row, dst = fwd_view s k in
      let size = Array.length members in
      stacks.(k) <- Array.make (max size 1) 0;
      (match kind with
      | Ef | Eu ->
        Array.iteri
          (fun m g ->
            if Bitvec.unsafe_get out g then begin
              stacks.(k).(sps.(k)) <- m;
              sps.(k) <- sps.(k) + 1
            end)
          members
      | Eg ->
        cnt.(k) <- Array.make (max size 1) 0;
        Array.iteri
          (fun m g ->
            if Bitvec.unsafe_get out g then begin
              let c = ref 0 in
              for e = row.(m) to row.(m + 1) - 1 do
                if Bitvec.unsafe_get out dst.(e) then incr c
              done;
              cnt.(k).(m) <- !c;
              if !c = 0 && row.(m + 1) > row.(m) then begin
                stacks.(k).(sps.(k)) <- m;
                sps.(k) <- sps.(k) + 1
              end
            end)
          members
      | Au ->
        (* first pass only: bad-successor counts against the unmodified
           seed — candidates are a separate pass below, exactly like the
           in-process engine, so no edge's removal is counted twice *)
        cnt.(k) <- Array.make (max size 1) 0;
        Array.iteri
          (fun m _g ->
            let c = ref 0 in
            for e = row.(m) to row.(m + 1) - 1 do
              if not (Bitvec.unsafe_get out dst.(e)) then incr c
            done;
            cnt.(k).(m) <- !c)
          members
      )
    end
  done;
  (match kind with
  | Au ->
    let fset = match guard with Some f -> f | None -> raise (Wire.Wire_error "worker: AU without guard") in
    for k = 0 to s.shards - 1 do
      if s.owned.(k) then begin
        let members, row, _ = fwd_view s k in
        Array.iteri
          (fun m g ->
            if
              (not (Bitvec.unsafe_get out g))
              && Bitvec.unsafe_get fset g
              && row.(m + 1) > row.(m)
              && cnt.(k).(m) = 0
            then begin
              Bitvec.unsafe_set out g;
              stacks.(k).(sps.(k)) <- m;
              sps.(k) <- sps.(k) + 1
            end)
          members
      end
    done
  | Ef | Eu | Eg -> ());
  s.fix <- Some { kind; out; guard; stacks; sps; cnt }

(* Apply one shard's incoming boundary items, then drain every owned stack.
   Cross-worker work goes to per-destination-shard outboxes; within the
   worker, pushes land directly on the owning shard's stack — exactly the
   in-process worklist, cut at process boundaries.  All four fixpoints are
   confluent, so the drain order (which differs from the single-process
   schedule) cannot change the converged set. *)
let fix_round s data =
  require_ctx s;
  let f = match s.fix with Some f -> f | None -> raise (Wire.Wire_error "worker: fix_round before fix_init") in
  let outboxes = Array.init s.shards (fun _ -> Ivec.create ()) in
  let blocking_of row m = row.(m + 1) = row.(m) in
  (* incoming boundary items *)
  for k = 0 to s.shards - 1 do
    if s.owned.(k) then begin
      match field_opt data (Printf.sprintf "in%d" k) with
      | None -> ()
      | Some incoming ->
        let _, row, _ = fwd_view s k in
        Array.iter
          (fun g ->
            let m =
              match Hashtbl.find_opt s.g2l.(k) g with
              | Some m -> m
              | None -> raise (Wire.Wire_error "worker: boundary item for foreign state")
            in
            match f.kind with
            | Ef ->
              if not (Bitvec.unsafe_get f.out g) then begin
                Bitvec.unsafe_set f.out g;
                f.stacks.(k).(f.sps.(k)) <- m;
                f.sps.(k) <- f.sps.(k) + 1
              end
            | Eu ->
              let fset = Option.get f.guard in
              if (not (Bitvec.unsafe_get f.out g)) && Bitvec.unsafe_get fset g then begin
                Bitvec.unsafe_set f.out g;
                f.stacks.(k).(f.sps.(k)) <- m;
                f.sps.(k) <- f.sps.(k) + 1
              end
            | Eg ->
              (* a decrement event: one per removed-successor edge *)
              if Bitvec.unsafe_get f.out g then begin
                f.cnt.(k).(m) <- f.cnt.(k).(m) - 1;
                if f.cnt.(k).(m) = 0 then begin
                  f.stacks.(k).(f.sps.(k)) <- m;
                  f.sps.(k) <- f.sps.(k) + 1
                end
              end
            | Au ->
              let fset = Option.get f.guard in
              f.cnt.(k).(m) <- f.cnt.(k).(m) - 1;
              if
                (not (Bitvec.unsafe_get f.out g))
                && Bitvec.unsafe_get fset g
                && (not (blocking_of row m))
                && f.cnt.(k).(m) = 0
              then begin
                Bitvec.unsafe_set f.out g;
                f.stacks.(k).(f.sps.(k)) <- m;
                f.sps.(k) <- f.sps.(k) + 1
              end)
          incoming
    end
  done;
  (* drain until every owned stack is empty *)
  let progress = ref true in
  while !progress do
    progress := false;
    for k = 0 to s.shards - 1 do
      if s.owned.(k) && f.sps.(k) > 0 then begin
        progress := true;
        let prow, psrc = pred_view s k in
        let members, _, _ = fwd_view s k in
        let stack = f.stacks.(k) in
        while f.sps.(k) > 0 do
          f.sps.(k) <- f.sps.(k) - 1;
          let m = stack.(f.sps.(k)) in
          (match f.kind with
          | Ef ->
            for e = prow.(m) to prow.(m + 1) - 1 do
              let p = psrc.(e) in
              if not (Bitvec.unsafe_get f.out p) then
                if owned_gid s p then begin
                  Bitvec.unsafe_set f.out p;
                  let kp = s.owner_g.(p) in
                  f.stacks.(kp).(f.sps.(kp)) <- s.local_g.(p);
                  f.sps.(kp) <- f.sps.(kp) + 1
                end
                else begin
                  Bitvec.unsafe_set f.out p;
                  Ivec.push outboxes.(s.owner_g.(p)) p
                end
            done
          | Eu ->
            let fset = Option.get f.guard in
            for e = prow.(m) to prow.(m + 1) - 1 do
              let p = psrc.(e) in
              if (not (Bitvec.unsafe_get f.out p)) && Bitvec.unsafe_get fset p then
                if owned_gid s p then begin
                  Bitvec.unsafe_set f.out p;
                  let kp = s.owner_g.(p) in
                  f.stacks.(kp).(f.sps.(kp)) <- s.local_g.(p);
                  f.sps.(kp) <- f.sps.(kp) + 1
                end
                else begin
                  Bitvec.unsafe_set f.out p;
                  Ivec.push outboxes.(s.owner_g.(p)) p
                end
            done
          | Eg ->
            let g = members.(m) in
            if Bitvec.unsafe_get f.out g then begin
              Bitvec.unsafe_clear f.out g;
              for e = prow.(m) to prow.(m + 1) - 1 do
                let p = psrc.(e) in
                if Bitvec.unsafe_get f.out p then
                  if owned_gid s p then begin
                    let kp = s.owner_g.(p) in
                    let lp = s.local_g.(p) in
                    f.cnt.(kp).(lp) <- f.cnt.(kp).(lp) - 1;
                    if f.cnt.(kp).(lp) = 0 then begin
                      f.stacks.(kp).(f.sps.(kp)) <- lp;
                      f.sps.(kp) <- f.sps.(kp) + 1
                    end
                  end
                  else Ivec.push outboxes.(s.owner_g.(p)) p
              done
            end
          | Au ->
            let fset = Option.get f.guard in
            for e = prow.(m) to prow.(m + 1) - 1 do
              let p = psrc.(e) in
              if owned_gid s p then begin
                let kp = s.owner_g.(p) in
                let lp = s.local_g.(p) in
                f.cnt.(kp).(lp) <- f.cnt.(kp).(lp) - 1;
                let blocking =
                  let _, prow_p, _ = fwd_view s kp in
                  prow_p.(lp + 1) = prow_p.(lp)
                in
                if
                  (not (Bitvec.unsafe_get f.out p))
                  && Bitvec.unsafe_get fset p
                  && (not blocking)
                  && f.cnt.(kp).(lp) = 0
                then begin
                  Bitvec.unsafe_set f.out p;
                  f.stacks.(kp).(f.sps.(kp)) <- lp;
                  f.sps.(kp) <- f.sps.(kp) + 1
                end
              end
              else Ivec.push outboxes.(s.owner_g.(p)) p
            done)
        done
      end
    done
  done;
  let out = ref [] in
  for kk = s.shards - 1 downto 0 do
    if Ivec.length outboxes.(kk) > 0 then
      out := (Printf.sprintf "out%d" kk, Segment.Ints (Ivec.to_array outboxes.(kk))) :: !out
  done;
  !out

let fix_done s =
  match s.fix with
  | None -> raise (Wire.Wire_error "worker: fix_done before fix_init")
  | Some f ->
    s.fix <- None;
    [ ("out", Segment.Bits f.out) ]

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
        owned = Array.make shards false;
        fwd = Array.make shards None;
        pred = Array.make shards None;
        g2l = Array.init shards (fun _ -> Hashtbl.create 16);
        owner_g = [||];
        local_g = [||];
        fix = None;
        rounds = 0;
        uniq = 0;
        die_after = Wire.jint_opt meta "die_after_rounds";
      }
    in
    Hashtbl.replace t.sessions sid s;
    ok []
  | "expand" -> ok (expand (session ()) data)
  | "ctx" ->
    let s = session () in
    s.owner_g <- ints_field data "owner";
    s.local_g <- ints_field data "local";
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
    ok [ ("out", Segment.Bits (agg s ~forall (Wire.bits data "x"))) ]
  | "fix_init" ->
    let s = session () in
    let kind =
      match Wire.jstr meta "kind" with
      | "ef" -> Ef
      | "eu" -> Eu
      | "eg" -> Eg
      | "au" -> Au
      | k -> raise (Wire.Wire_error ("worker: unknown fixpoint kind " ^ k))
    in
    let seed = Wire.bits data "seed" in
    let guard = match List.assoc_opt "guard" data with Some (Segment.Bits b) -> Some b | _ -> None in
    fix_init s kind ~seed ~guard;
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
