(* The coordinator half of the distributed shard tier.

   [explore] drives the same level-synchronized BFS as {!Mechaml_ts.Shard}
   — but expansion happens in worker {e processes}, each owning a subset of
   shards, reached over {!Mechaml_wire.Shardwire}.  The coordinator keeps
   everything verdict-bearing: the per-shard interning tables, the serial
   discovery-order merge (so state numbering, labels, degrees and adjacency
   order are byte-identical to {!Compose.parallel} and {!Shard} for any
   worker count), and a banked copy of every shipped edge generation so a
   crashed or stalled worker can be replaced mid-build.  The heavy O(edges)
   data lives on the workers; the coordinator's own bank goes through a
   {!Segment} manager, so its resident memory is bounded by the budget. *)

module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Ivec = Mechaml_util.Ivec
module Json = Mechaml_obs.Json
module Metrics = Mechaml_obs.Metrics
module Universe = Mechaml_ts.Universe
module Automaton = Mechaml_ts.Automaton
module Shard = Mechaml_ts.Shard
module Http = Mechaml_wire.Http
module Wire = Mechaml_wire.Shardwire

let m_rounds =
  Metrics.counter "mc_dist_rounds_total"
    ~help:"Coordinator round trips to the distributed shard-worker fleet."

let m_tx =
  Metrics.counter "mc_dist_bytes_tx_total"
    ~help:"Bytes shipped from the coordinator to shard workers."

let m_rx =
  Metrics.counter "mc_dist_bytes_rx_total"
    ~help:"Bytes received by the coordinator from shard workers."

let m_restarts =
  Metrics.counter "mc_dist_worker_restarts_total"
    ~help:"Shard workers declared dead (crashed or past the round deadline) and replaced."

let total_rounds () = Metrics.counter_value m_rounds

let total_bytes_tx () = Metrics.counter_value m_tx

let total_bytes_rx () = Metrics.counter_value m_rx

let total_restarts () = Metrics.counter_value m_restarts

exception Dist_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Dist_error m)) fmt

type worker = {
  mutable addr : Wire.addr;
  mutable pid : int option;  (* Fork mode only *)
  mutable alive : bool;
}

type t = {
  config : Shard.config;
  deadline : float;
  sid : string;
  fork : bool;
  left_json : Json.t;
  right_json : Json.t;
  mgr : Segment.t;
  crew : Shard.Crew.t;
  workers : worker array;
  place : int array;  (* shard -> worker index *)
  n : int;
  transitions : int;
  initial : int list;
  owner : int array;
  local : int array;
  labels : Bitset.t array;
  props : Universe.t;
  blocking : Bitvec.t;
  sizes : int array;
  memv : int array array;  (* per-shard member gids, ascending *)
  fwd_bank : Segment.slot array;  (* the last shipped segment generation *)
  pred_bank : Segment.slot array;
  mutable restarts : int;
  mutable closed : bool;
}

let ints payload name =
  match List.assoc_opt name payload with
  | Some (Segment.Ints a) -> a
  | _ -> raise (Segment.Spill_error ("dist segment field missing: " ^ name))

(* -- fleet ------------------------------------------------------------------ *)

let sid_counter = Atomic.make 0

let worker_bin () =
  match Sys.getenv_opt "MECHAVERIFY_BIN" with
  | Some b -> b
  | None -> Sys.executable_name

let spawn_worker mgr i =
  let sock = Segment.scratch_path mgr ~name:(Printf.sprintf "w%d" i) in
  let bin = worker_bin () in
  let pid =
    Unix.create_process bin
      [| bin; "shard-worker"; sock; "--ppid"; string_of_int (Unix.getpid ()) |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (Wire.Unix_sock sock, pid)

(* Poll until the worker's accept loop answers a ping. *)
let await_worker ?(timeout_s = 20.) addr =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Wire.call ~deadline_s:5. addr ~path:"/v1/dist/ping" (Wire.msg (Json.Obj [ ("op", Json.Str "ping") ])) with
    | _ -> ()
    | exception _ ->
      if Unix.gettimeofday () > deadline then
        fail "dist: worker at %s did not come up within %.0fs" (Wire.addr_to_string addr) timeout_s
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_worker w =
  (match w.pid with
  | Some pid ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid
  | None -> ());
  w.alive <- false

(* A dead worker either respawns in place (Fork) or hands its shards to the
   first surviving peer (Connect — pre-started workers are infrastructure
   the coordinator cannot restart). *)
let replace t w =
  t.restarts <- t.restarts + 1;
  Metrics.incr m_restarts;
  let ww = t.workers.(w) in
  if t.fork then begin
    kill_worker ww;
    let addr, pid = spawn_worker t.mgr w in
    ww.addr <- addr;
    ww.pid <- Some pid;
    await_worker addr;
    ww.alive <- true;
    w
  end
  else begin
    ww.alive <- false;
    let surv = ref (-1) in
    Array.iteri (fun i x -> if !surv < 0 && x.alive then surv := i) t.workers;
    if !surv < 0 then fail "dist: every connected worker is gone";
    Array.iteri (fun k wk -> if wk = w then t.place.(k) <- !surv) t.place;
    !surv
  end

(* -- parallel dispatch ------------------------------------------------------

   The main domain builds every request payload (it alone touches the
   segment manager); the crew overlaps only the wire round trips; the main
   domain consumes the replies.  Per-worker slots keep the crew race-free. *)

let dispatch t (reqs : (string * Wire.msg) list array) :
    (Wire.msg list, exn) result array =
  let nw = Array.length t.workers in
  let res = Array.make nw (Ok []) in
  let txa = Array.make nw 0 and rxa = Array.make nw 0 in
  Shard.Crew.round t.crew (fun w ->
      match reqs.(w) with
      | [] -> ()
      | rs ->
        res.(w) <-
          (try
             Ok
               (List.map
                  (fun (path, m) ->
                    let reply, tx, rx =
                      Wire.call ~deadline_s:t.deadline t.workers.(w).addr ~path m
                    in
                    txa.(w) <- txa.(w) + tx;
                    rxa.(w) <- rxa.(w) + rx;
                    reply)
                  rs)
           with e -> Error e));
  Metrics.add m_tx (Array.fold_left ( + ) 0 txa);
  Metrics.add m_rx (Array.fold_left ( + ) 0 rxa);
  Metrics.incr m_rounds;
  res

let shards_of_worker t w =
  let out = ref [] in
  for k = Array.length t.place - 1 downto 0 do
    if t.place.(k) = w then out := k :: !out
  done;
  !out

let meta t op extra = Json.Obj (("op", Json.Str op) :: ("sid", Json.Str t.sid) :: extra)

let transport_failed = function
  | Wire.Wire_error _ | Http.Closed | Http.Bad _ | Http.Timeout _ | Unix.Unix_error _ -> true
  | _ -> false

let open_msg t w ?die_after_rounds () =
  let extra =
    [
      ("shards", Wire.num t.config.Shard.shards);
      ("owned", Wire.nums (shards_of_worker t w));
      ("left", t.left_json);
      ("right", t.right_json);
    ]
    @ (match t.config.Shard.mem_budget with Some b -> [ ("budget", Wire.num b) ] | None -> [])
    @
    match die_after_rounds with
    | Some r -> [ ("die_after_rounds", Wire.num r) ]
    | None -> []
  in
  ("/v1/dist/open", Wire.msg (meta t "open" extra))

(* One call on the main domain, outside the crew (fleet setup/teardown). *)
let solo_call t w (path, m) =
  let reply, tx, rx = Wire.call ~deadline_s:t.deadline t.workers.(w).addr ~path m in
  Metrics.add m_tx tx;
  Metrics.add m_rx rx;
  reply

(* -- explore ---------------------------------------------------------------- *)

let explore ?(config = Shard.config ()) ?chaos_die_after (left : Automaton.t)
    (right : Automaton.t) =
  let dist =
    match config.Shard.distribution with
    | Some d -> d
    | None -> invalid_arg "Distshard.explore: config has no distribution"
  in
  if not (Automaton.composable left right) then
    invalid_arg
      (Printf.sprintf "Distshard.explore: %s and %s are not composable" left.Automaton.name
         right.Automaton.name);
  if not (Universe.disjoint left.Automaton.props right.Automaton.props) then
    invalid_arg "Distshard.explore: proposition universes overlap";
  let shards = config.Shard.shards in
  let props = Universe.union left.Automaton.props right.Automaton.props in
  let lp_size = Universe.size left.Automaton.props in
  let nr = Automaton.num_states right in
  let shard_of key = if shards = 1 then 0 else Shard.mix key mod shards in
  let mgr = Segment.create ?budget:config.Shard.mem_budget ?dir:config.Shard.spill_dir ~name:"dist" () in
  let nw =
    match dist.Shard.dist_mode with
    | Shard.Fork n -> min n shards
    | Shard.Connect addrs -> min (List.length addrs) shards
  in
  let workers =
    match dist.Shard.dist_mode with
    | Shard.Fork _ ->
      Array.init nw (fun i ->
          let addr, pid = spawn_worker mgr i in
          { addr; pid = Some pid; alive = true })
    | Shard.Connect addrs ->
      Array.of_list
        (List.filteri
           (fun i _ -> i < nw)
           (List.map (fun a -> { addr = Wire.addr_of_string a; pid = None; alive = true }) addrs))
  in
  let t =
    {
      config;
      deadline = dist.Shard.dist_deadline_s;
      sid = Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add sid_counter 1);
      fork = (match dist.Shard.dist_mode with Shard.Fork _ -> true | Shard.Connect _ -> false);
      left_json = Wire.json_of_automaton left;
      right_json = Wire.json_of_automaton right;
      mgr;
      crew = Shard.Crew.create nw;
      workers;
      place = Array.init shards (fun k -> k mod nw);
      n = 0;
      transitions = 0;
      initial = [];
      owner = [||];
      local = [||];
      labels = [||];
      props;
      blocking = Bitvec.create 0;
      sizes = Array.make shards 0;
      memv = Array.make shards [||];
      fwd_bank = [||];
      pred_bank = [||];
      restarts = 0;
      closed = false;
    }
  in
  let teardown () =
    Array.iteri
      (fun w ww ->
        if t.fork then kill_worker ww
        else if ww.alive then
          try ignore (solo_call t w ("/v1/dist/close", Wire.msg (meta t "close" []))) with _ -> ())
      t.workers;
    (try Shard.Crew.stop t.crew with _ -> ());
    Segment.close mgr
  in
  try
    if t.fork then Array.iter (fun w -> await_worker w.addr) t.workers;
    (* Sessions hold no build state until the first round, so a worker dead
       at open time is repaired wholesale: replace it, then re-open every
       survivor with the re-placed shard sets (the worker's open handler is
       re-entrant per session id). *)
    let open_round () =
      let failed = ref [] in
      Array.iteri
        (fun w ww ->
          if ww.alive then
            try
              ignore
                (solo_call t w
                   (open_msg t w
                      ?die_after_rounds:
                        (match chaos_die_after with
                        | Some (wi, r) when wi = w -> Some r
                        | _ -> None)
                      ()))
            with e when transport_failed e -> failed := w :: !failed)
        t.workers;
      !failed
    in
    let rec open_all attempts =
      match open_round () with
      | [] -> ()
      | failed ->
        if attempts <= 0 then fail "open: workers keep failing";
        List.iter (fun w -> ignore (replace t w)) failed;
        open_all (attempts - 1)
    in
    open_all ((2 * nw) + 2);
    (* -- coordinator truth: interning and per-shard history ------------------ *)
    let tbl = Array.init shards (fun _ -> Hashtbl.create 256) in
    let owner = Ivec.create () in
    let local = Ivec.create () in
    let labs = Ivec.create () in
    let memv = Array.init shards (fun _ -> Ivec.create ()) in
    let keyv = Array.init shards (fun _ -> Ivec.create ()) in
    let degv = Array.init shards (fun _ -> Ivec.create ()) in
    (* edge history: a live tail plus banked chunk slots, so the resident
       part stays O(chunk) while the full per-shard history remains
       re-shippable for recovery *)
    let hist_tail = Array.init shards (fun _ -> Ivec.create ()) in
    let hist_chunks = Array.make shards [] in
    let chunk_ints =
      match config.Shard.mem_budget with
      | Some b -> max 4096 (b / (16 * shards * 8))
      | None -> 1 lsl 18
    in
    let chunk_id = ref 0 in
    let bank_tail k =
      if Ivec.length hist_tail.(k) >= chunk_ints then begin
        let slot =
          Segment.add mgr
            ~name:(Printf.sprintf "eh%d_%d" k (incr chunk_id; !chunk_id))
            [ ("e", Segment.Ints (Ivec.to_array hist_tail.(k))) ]
        in
        hist_chunks.(k) <- (slot, Ivec.length hist_tail.(k)) :: hist_chunks.(k);
        Ivec.clear hist_tail.(k)
      end
    in
    let full_history k =
      let total =
        List.fold_left (fun acc (_, l) -> acc + l) (Ivec.length hist_tail.(k)) hist_chunks.(k)
      in
      let out = Array.make (max total 1) 0 in
      let cursor = ref 0 in
      List.iter
        (fun (slot, len) ->
          Array.blit (ints (Segment.get mgr slot) "e") 0 out !cursor len;
          cursor := !cursor + len)
        (List.rev hist_chunks.(k));
      Array.blit (Ivec.to_array hist_tail.(k)) 0 out !cursor (Ivec.length hist_tail.(k));
      Array.sub out 0 total
    in
    let pending_mg = Array.init shards (fun _ -> Ivec.create ()) in
    let pending_mk = Array.init shards (fun _ -> Ivec.create ()) in
    let pending_e = Array.make shards [||] in
    let intern s s' =
      let key = (s * nr) + s' in
      let k = shard_of key in
      match Hashtbl.find_opt tbl.(k) key with
      | Some id -> id
      | None ->
        let id = Ivec.length owner in
        Hashtbl.add tbl.(k) key id;
        Ivec.push owner k;
        Ivec.push local (Ivec.length memv.(k));
        Ivec.push memv.(k) id;
        Ivec.push keyv.(k) key;
        Ivec.push labs
          (Bitset.to_int
             (Bitset.union (Automaton.label left s)
                (Bitset.shift lp_size (Automaton.label right s'))));
        Ivec.push pending_mg.(k) id;
        Ivec.push pending_mk.(k) key;
        id
    in
    let initial =
      List.concat_map
        (fun q -> List.map (fun q' -> intern q q') right.Automaton.initial)
        left.Automaton.initial
    in
    (* mid-build recovery: rebuild a lost worker's shards from coordinator
       truth, then have it expand the in-flight frontier like everyone else *)
    let adopt_reqs ks =
      let fields =
        List.concat_map
          (fun k ->
            [
              (Printf.sprintf "mg%d" k, Segment.Ints (Ivec.to_array memv.(k)));
              (Printf.sprintf "mk%d" k, Segment.Ints (Ivec.to_array keyv.(k)));
              (Printf.sprintf "deg%d" k, Segment.Ints (Ivec.to_array degv.(k)));
              (Printf.sprintf "e%d" k, Segment.Ints (full_history k));
            ])
          ks
      in
      let m =
        meta t "adopt"
          [
            ("shards", Wire.nums ks);
            ("expanded", Wire.nums (List.map (fun k -> Ivec.length degv.(k)) ks));
          ]
      in
      ("/v1/dist/adopt", Wire.msg ~data:fields m)
    in
    let recover_building w =
      let target = replace t w in
      if t.fork then ignore (solo_call t target (open_msg t target ()));
      let ks = shards_of_worker t target in
      ignore (solo_call t target (adopt_reqs ks));
      target
    in
    (* Dispatch one phase to the whole fleet with recovery: on a transport
       failure (or garbage) the worker is replaced, rebuilt via [rebuild],
       and re-asked via [retry_req] — live workers' replies are kept.
       Returns (request, reply) pairs so phases can attribute replies even
       after shards were redistributed mid-phase. *)
    let max_restarts = (2 * nw) + 2 in
    let phase_with_recovery ~reqs ~rebuild ~retry_req =
      let pairs = ref [] in
      let rec settle reqs attempt =
        if attempt > max_restarts then fail "dist: giving up after %d worker restarts" attempt;
        let res = dispatch t reqs in
        let failed = ref [] in
        Array.iteri
          (fun w r ->
            match r with
            | Ok rs -> pairs := List.combine reqs.(w) rs @ !pairs
            | Error e -> if transport_failed e then failed := w :: !failed else raise e)
          res;
        match !failed with
        | [] -> ()
        | failed ->
          let retry = Array.make nw [] in
          List.iter
            (fun w ->
              let target = rebuild w in
              retry.(target) <- retry.(target) @ retry_req target)
            failed;
          settle retry (attempt + 1)
      in
      settle reqs 1;
      List.rev !pairs
    in
    (* -- level-synchronized BFS over the fleet ------------------------------- *)
    let lo = ref 0 in
    while !lo < Ivec.length owner do
      let hi = Ivec.length owner in
      let round_req w =
        let fields =
          List.concat_map
            (fun k ->
              (if Array.length pending_e.(k) > 0 then
                 [ (Printf.sprintf "e%d" k, Segment.Ints pending_e.(k)) ]
               else [])
              @
              if Ivec.length pending_mg.(k) > 0 then
                [
                  (Printf.sprintf "mg%d" k, Segment.Ints (Ivec.to_array pending_mg.(k)));
                  (Printf.sprintf "mk%d" k, Segment.Ints (Ivec.to_array pending_mk.(k)));
                ]
              else [])
            (shards_of_worker t w)
        in
        [ ("/v1/dist/round", Wire.msg ~data:fields (meta t "round" [])) ]
      in
      let reqs = Array.init nw round_req in
      let replies =
        phase_with_recovery ~reqs ~rebuild:recover_building ~retry_req:(fun _ ->
            (* the adopt already delivered members and edges — the retry is
               an empty round that just expands the frontier *)
            [ ("/v1/dist/round", Wire.msg (meta t "round" [])) ])
      in
      for k = 0 to shards - 1 do
        Ivec.clear pending_mg.(k);
        Ivec.clear pending_mk.(k);
        pending_e.(k) <- [||]
      done;
      (* gather per-shard expansion results — each shard's counts and keys
         arrive exactly once, except that a shard re-dispatched mid-round can
         answer twice with byte-identical data (deterministic expansion), so
         plain assignment is safe *)
      let resp_cnt = Array.make shards [||] in
      let resp_keys = Array.make shards [||] in
      List.iter
        (fun (_, (r : Wire.msg)) ->
          List.iter
            (fun (name, field) ->
              match field with
              | Segment.Ints a ->
                if String.length name > 1 && name.[0] = 'c' then (
                  match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
                  | Some k when k >= 0 && k < shards -> resp_cnt.(k) <- a
                  | _ -> fail "dist: worker answered unknown field %S" name)
                else if String.length name > 1 && name.[0] = 's' then (
                  match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
                  | Some k when k >= 0 && k < shards -> resp_keys.(k) <- a
                  | _ -> fail "dist: worker answered unknown field %S" name)
                else fail "dist: worker answered unknown field %S" name
              | _ -> fail "dist: worker answered non-Ints field %S" name)
            r.Wire.data)
        replies;
      (* the serial discovery-order merge — identical numbering to the
         in-process construction, whatever the fleet did *)
      let delta = Array.init shards (fun _ -> Ivec.create ()) in
      let ccur = Array.make shards 0 in
      let kcur = Array.make shards 0 in
      for gid = !lo to hi - 1 do
        let k = Ivec.get owner gid in
        if ccur.(k) >= Array.length resp_cnt.(k) then
          fail "dist: shard %d answered %d expansions, expected more" k (Array.length resp_cnt.(k));
        let c = resp_cnt.(k).(ccur.(k)) in
        ccur.(k) <- ccur.(k) + 1;
        Ivec.push degv.(k) c;
        let base = kcur.(k) in
        if base + c > Array.length resp_keys.(k) then
          fail "dist: shard %d successor batch shorter than its counts" k;
        for j = 0 to c - 1 do
          let key = resp_keys.(k).(base + j) in
          Ivec.push delta.(k) (intern (key / nr) (key mod nr))
        done;
        kcur.(k) <- base + c
      done;
      for k = 0 to shards - 1 do
        if Ivec.length delta.(k) > 0 then begin
          pending_e.(k) <- Ivec.to_array delta.(k);
          Array.iter (fun x -> Ivec.push hist_tail.(k) x) pending_e.(k);
          bank_tail k
        end
      done;
      lo := hi
    done;
    (* -- finish: final deltas out, forward CSRs finalized on the workers ----- *)
    let finish_req w =
      let fields =
        List.concat_map
          (fun k ->
            if Array.length pending_e.(k) > 0 then
              [ (Printf.sprintf "e%d" k, Segment.Ints pending_e.(k)) ]
            else [])
          (shards_of_worker t w)
      in
      [ ("/v1/dist/finish", Wire.msg ~data:fields (meta t "finish" [])) ]
    in
    let rebuild_built w =
      let target = recover_building w in
      (* the adopted state already holds the final deltas (they are part of
         the banked history), so the finish retry ships none *)
      ignore (solo_call t target ("/v1/dist/finish", Wire.msg (meta t "finish" [])));
      target
    in
    ignore
      (phase_with_recovery ~reqs:(Array.init nw finish_req) ~rebuild:recover_building
         ~retry_req:(fun _ -> [ ("/v1/dist/finish", Wire.msg (meta t "finish" [])) ]));
    Array.iteri (fun k _ -> pending_e.(k) <- [||]) pending_e;
    (* coordinator-side finalization: sizes, degrees -> blocking, transitions *)
    let n = Ivec.length owner in
    let owner_a = Ivec.to_array owner in
    let local_a = Ivec.to_array local in
    let labels = Array.init n (fun i -> Bitset.of_int_unsafe (Ivec.get labs i)) in
    let sizes = Array.map Ivec.length memv in
    let blocking = Bitvec.create n in
    let transitions = ref 0 in
    for k = 0 to shards - 1 do
      for m = 0 to Ivec.length degv.(k) - 1 do
        let d = Ivec.get degv.(k) m in
        transitions := !transitions + d;
        if d = 0 then Bitvec.unsafe_set blocking (Ivec.get memv.(k) m)
      done
    done;
    (* -- scatter: predecessor pairs routed by destination shard -------------- *)
    let ctx_fields = [ ("owner", Segment.Ints owner_a); ("local", Segment.Ints local_a) ] in
    let scatter_req _ = [ ("/v1/dist/scatter", Wire.msg ~data:ctx_fields (meta t "scatter" [])) ] in
    let sc_bank = Array.make (shards * shards) None in
    let bank_id = ref 0 in
    List.iter
      (fun (_, (r : Wire.msg)) ->
        List.iter
          (fun (name, field) ->
            match (field, String.split_on_char '_' name) with
            | Segment.Ints a, [ src; dst ] when String.length src > 1 && src.[0] = 'p' -> (
              match
                ( int_of_string_opt (String.sub src 1 (String.length src - 1)),
                  int_of_string_opt dst )
              with
              | Some sk, Some dk when sk >= 0 && sk < shards && dk >= 0 && dk < shards ->
                incr bank_id;
                sc_bank.((sk * shards) + dk) <-
                  Some
                    ( Segment.add mgr
                        ~name:(Printf.sprintf "sc%d_%d_%d" sk dk !bank_id)
                        [ ("p", Segment.Ints a) ],
                      Array.length a )
              | _ -> fail "dist: bad scatter field %S" name)
            | _ -> fail "dist: bad scatter field %S" name)
          r.Wire.data)
      (phase_with_recovery ~reqs:(Array.init nw scatter_req) ~rebuild:rebuild_built
         ~retry_req:(fun target -> scatter_req target));
    (* -- pred: per-shard predecessor CSR built on its owner, whole segment
       shipped back and banked — the recovery generation ---------------------- *)
    let pred_req_for k =
      let total =
        let acc = ref 0 in
        for sk = 0 to shards - 1 do
          match sc_bank.((sk * shards) + k) with Some (_, len) -> acc := !acc + len | None -> ()
        done;
        !acc
      in
      let pairs = Array.make (max total 1) 0 in
      let cursor = ref 0 in
      for sk = 0 to shards - 1 do
        match sc_bank.((sk * shards) + k) with
        | Some (slot, len) ->
          Array.blit (ints (Segment.get mgr slot) "p") 0 pairs !cursor len;
          cursor := !cursor + len
        | None -> ()
      done;
      ( "/v1/dist/pred",
        Wire.msg
          ~data:[ ("pairs", Segment.Ints (Array.sub pairs 0 total)) ]
          (meta t "pred" [ ("shard", Wire.num k) ]) )
    in
    let pred_reqs w = List.map pred_req_for (shards_of_worker t w) in
    let fwd_bank = Array.make shards None in
    let pred_bank = Array.make shards None in
    (* each reply's shard comes from its own request's meta, so replies stay
       attributable even after mid-phase redistribution *)
    List.iter
      (fun (((_, req) : string * Wire.msg), (r : Wire.msg)) ->
        let k = Wire.jint req.Wire.meta "shard" in
        incr bank_id;
        fwd_bank.(k) <-
          Some
            (Segment.add mgr
               ~name:(Printf.sprintf "fwd%d_%d" k !bank_id)
               [
                 ("members", Segment.Ints (Wire.ints r.Wire.data "members"));
                 ("row", Segment.Ints (Wire.ints r.Wire.data "row"));
                 ("dst", Segment.Ints (Wire.ints r.Wire.data "dst"));
               ]);
        pred_bank.(k) <-
          Some
            (Segment.add mgr
               ~name:(Printf.sprintf "pred%d_%d" k !bank_id)
               [
                 ("prow", Segment.Ints (Wire.ints r.Wire.data "prow"));
                 ("psrc", Segment.Ints (Wire.ints r.Wire.data "psrc"));
               ]))
      (phase_with_recovery ~reqs:(Array.init nw pred_reqs) ~rebuild:rebuild_built
         ~retry_req:(fun target -> pred_reqs target));
    let unwrap name = function Some x -> x | None -> fail "dist: shard missing its %s segment" name in
    {
      t with
      n;
      transitions = !transitions;
      initial;
      owner = owner_a;
      local = local_a;
      labels;
      blocking;
      sizes;
      memv = Array.map Ivec.to_array memv;
      fwd_bank = Array.map (unwrap "forward") fwd_bank;
      pred_bank = Array.map (unwrap "predecessor") pred_bank;
    }
  with e ->
    teardown ();
    raise e

(* -- post-build recovery ----------------------------------------------------
   A worker lost after the build is rebuilt from the banked generation:
   fresh session (Fork), global owner/local context, then every owned shard's
   forward + predecessor segments, digest-checked on receipt. *)

let recover_built t w =
  let target = replace t w in
  if t.fork then ignore (solo_call t target (open_msg t target ()));
  let ctx =
    ( "/v1/dist/ctx",
      Wire.msg
        ~data:[ ("owner", Segment.Ints t.owner); ("local", Segment.Ints t.local) ]
        (meta t "ctx" []) )
  in
  ignore (solo_call t target ctx);
  List.iter
    (fun k ->
      let f = Segment.get t.mgr t.fwd_bank.(k) in
      let p = Segment.get t.mgr t.pred_bank.(k) in
      ignore
        (solo_call t target
           ( "/v1/dist/adopt_seg",
             Wire.msg
               ~data:
                 [
                   ("members", Segment.Ints (ints f "members"));
                   ("row", Segment.Ints (ints f "row"));
                   ("dst", Segment.Ints (ints f "dst"));
                   ("prow", Segment.Ints (ints p "prow"));
                   ("psrc", Segment.Ints (ints p "psrc"));
                 ]
               (meta t "adopt_seg" [ ("shard", Wire.num k) ]) )))
    (shards_of_worker t target);
  target

(* Run [attempt] (a whole wire operation); if it loses workers, rebuild them
   and run it again from scratch.  All callers' operations are either
   stateless sweeps or confluent fixpoints restarted from their operands, so
   a clean re-run computes the identical result. *)
let with_recovery t attempt =
  let tries = ref 0 in
  let rec go () =
    incr tries;
    if !tries > (2 * Array.length t.workers) + 2 then
      fail "dist: giving up after %d attempts" !tries;
    match attempt () with
    | Ok v -> v
    | Error failed ->
      List.iter (fun w -> ignore (recover_built t w)) (List.sort_uniq compare failed);
      go ()
  in
  go ()

(* Assemble a global result vector from per-worker replies: each state's bit
   comes from the worker owning its shard — never OR'd, so stale foreign
   bits in a worker's scratch copy (EG clears, EF dedup marks) cannot leak
   into the result. *)
let assemble t (per_worker : Bitvec.t option array) =
  let out = Bitvec.create t.n in
  for k = 0 to t.config.Shard.shards - 1 do
    match per_worker.(t.place.(k)) with
    | Some v ->
      Array.iter (fun g -> if Bitvec.unsafe_get v g then Bitvec.unsafe_set out g) t.memv.(k)
    | None -> fail "dist: shard %d's owner sent no result" k
  done;
  out

let worker_indices t =
  let nw = Array.length t.workers in
  List.filter (fun w -> shards_of_worker t w <> []) (List.init nw Fun.id)

(* One structural sweep over the fleet: exists/forall over successors. *)
let agg t ~forall (x : Bitvec.t) =
  let nw = Array.length t.workers in
  with_recovery t (fun () ->
      let kind = if forall then "forall" else "exists" in
      let reqs =
        Array.init nw (fun w ->
            if shards_of_worker t w = [] then []
            else
              [
                ( "/v1/dist/agg",
                  Wire.msg ~data:[ ("x", Segment.Bits x) ]
                    (meta t "agg" [ ("kind", Json.Str kind) ]) );
              ])
      in
      let res = dispatch t reqs in
      let failed = ref [] in
      let outs = Array.make nw None in
      Array.iteri
        (fun w r ->
          match r with
          | Ok [] -> ()
          | Ok (reply :: _) -> outs.(w) <- Some (Wire.bits reply.Wire.data "out")
          | Error e -> if transport_failed e then failed := w :: !failed else raise e)
        res;
      match !failed with [] -> Ok (assemble t outs) | f -> Error f)

type fix_kind = Mechaml_mc.Eval.fix = Ef | Eu | Eg | Au

let kind_name = function Ef -> "ef" | Eu -> "eu" | Eg -> "eg" | Au -> "au"

(* A full distributed fixpoint: init with [init] (and guard), then rounds
   of boundary exchange until no worker emits cross-shard work, then
   collect.  Any worker loss restarts the whole fixpoint from the operands —
   the fixpoints are confluent, so the re-run converges to the same set. *)
let fixpoint t kind ~(init : Bitvec.t) ~(guard : Bitvec.t option) =
  let nw = Array.length t.workers in
  with_recovery t (fun () ->
      let exception Lost of int in
      try
        let act = worker_indices t in
        let init_data =
          ("seed", Segment.Bits init)
          :: (match guard with Some g -> [ ("guard", Segment.Bits g) ] | None -> [])
        in
        let send_all mk =
          let reqs = Array.make nw [] in
          List.iter (fun w -> reqs.(w) <- mk w) act;
          let res = dispatch t reqs in
          let replies = Array.make nw [] in
          Array.iteri
            (fun w r ->
              match r with
              | Ok rs -> replies.(w) <- rs
              | Error e -> if transport_failed e then raise (Lost w) else raise e)
            res;
          replies
        in
        ignore
          (send_all (fun _ ->
               [
                 ( "/v1/dist/fix_init",
                   Wire.msg ~data:init_data
                     (meta t "fix_init" [ ("kind", Json.Str (kind_name kind)) ]) );
               ]));
        (* boundary exchange rounds until quiescence *)
        let inbox = ref [] in
        let quiet = ref false in
        while not !quiet do
          let routed = Array.make t.config.Shard.shards [] in
          List.iter
            (fun (k, a) -> routed.(k) <- a :: routed.(k))
            !inbox;
          let replies =
            send_all (fun w ->
                let fields =
                  List.concat_map
                    (fun k ->
                      match routed.(k) with
                      | [] -> []
                      | batches ->
                        let total = List.fold_left (fun a b -> a + Array.length b) 0 batches in
                        let buf = Array.make total 0 in
                        let cur = ref 0 in
                        List.iter
                          (fun b ->
                            Array.blit b 0 buf !cur (Array.length b);
                            cur := !cur + Array.length b)
                          (List.rev batches);
                        [ (Printf.sprintf "in%d" k, Segment.Ints buf) ])
                    (shards_of_worker t w)
                in
                [ ("/v1/dist/fix_round", Wire.msg ~data:fields (meta t "fix_round" [])) ])
          in
          inbox := [];
          Array.iter
            (fun rs ->
              List.iter
                (fun (r : Wire.msg) ->
                  List.iter
                    (fun (name, field) ->
                      match field with
                      | Segment.Ints a
                        when String.length name > 3 && String.sub name 0 3 = "out" -> (
                        match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
                        | Some k when k >= 0 && k < t.config.Shard.shards ->
                          inbox := (k, a) :: !inbox
                        | _ -> fail "dist: bad boundary field %S" name)
                      | _ -> fail "dist: bad boundary field %S" name)
                    r.Wire.data)
                rs)
            replies;
          quiet := !inbox = []
        done;
        let outs = Array.make nw None in
        let replies =
          send_all (fun _ -> [ ("/v1/dist/fix_done", Wire.msg (meta t "fix_done" [])) ])
        in
        Array.iteri
          (fun w rs ->
            match rs with
            | [] -> ()
            | reply :: _ -> outs.(w) <- Some (Wire.bits reply.Wire.data "out"))
          replies;
        Ok (assemble t outs)
      with Lost w -> Error [ w ])

(* -- accessors (mirroring Shard) -------------------------------------------- *)

let num_states t = t.n

let num_transitions t = t.transitions

let initial t = t.initial

let shards t = t.config.Shard.shards

let sizes t = t.sizes

let owner t = t.owner

let local t = t.local

let labels t = t.labels

let props t = t.props

let blocking t = t.blocking

type view = Shard.view = {
  members : int array;
  row : int array;
  dst : int array;
  prow : int array;
  psrc : int array;
}

let view t k =
  let pf = Segment.get t.mgr t.fwd_bank.(k) in
  let pp = Segment.get t.mgr t.pred_bank.(k) in
  {
    members = ints pf "members";
    row = ints pf "row";
    dst = ints pf "dst";
    prow = ints pp "prow";
    psrc = ints pp "psrc";
  }

let manager t = t.mgr

let spills t = Segment.spills t.mgr

let reloads t = Segment.reloads t.mgr

let restarts t = t.restarts

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iteri
      (fun w ww ->
        if ww.alive then (
          try
            ignore (solo_call t w ("/v1/dist/close", Wire.msg (meta t "close" [])));
            if t.fork then ignore (solo_call t w ("/v1/dist/shutdown", Wire.msg (meta t "shutdown" [])))
          with _ -> ());
        if t.fork then kill_worker ww)
      t.workers;
    (try Shard.Crew.stop t.crew with _ -> ());
    Segment.close t.mgr
  end
