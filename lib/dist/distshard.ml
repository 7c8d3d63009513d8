(* The coordinator half of the distributed shard tier.

   [explore] is {!Mechaml_ts.Shard.explore} with a fleet transport: each BFS
   level's frontier expansion happens in worker {e processes}, reached over
   {!Mechaml_wire.Shardwire}, while interning, the serial discovery-order
   merge and the CSR finalization stay in [Shard] on the coordinator — so
   the product is the in-process one, byte for byte, for any worker count.
   Build requests are stateless (the frontier keys in, counts and successor
   keys out), so a worker lost mid-build is replaced and sent the same
   request again.  After the build each worker is installed with its
   shards' finished segments and runs the shard-local part of the global
   fixpoints ({!Distsat}). *)

module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Json = Mechaml_obs.Json
module Metrics = Mechaml_obs.Metrics
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

(* A worker reply that arrived intact but does not verify: handled like a
   transport failure (replace and resend), never merged. *)
exception Bad_reply of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_reply m)) fmt

type worker = {
  mutable addr : Wire.addr;
  mutable pid : int option;  (* Fork mode only; [None] once reaped *)
  mutable alive : bool;
}

type fleet = {
  deadline : float;
  sid : string;
  fork : bool;
  session : (string * Json.t) list;  (* the open request's fields *)
  scratch : Segment.t;  (* hosts the forked workers' sockets *)
  crew : Crew.t;
  workers : worker array;
  place : int array;  (* shard -> worker index *)
  mutable restarts : int;
}

type t = {
  fleet : fleet;
  shard : Shard.t;
  mutable closed : bool;
}

(* -- fleet ------------------------------------------------------------------ *)

let sid_counter = Atomic.make 0

(* An empty MECHAVERIFY_BIN counts as unset. *)
let worker_bin () =
  match Sys.getenv_opt "MECHAVERIFY_BIN" with
  | Some b when b <> "" -> b
  | _ -> Sys.executable_name

let meta f op extra = Json.Obj (("op", Json.Str op) :: ("sid", Json.Str f.sid) :: extra)

let transport_failed = function
  | Wire.Wire_error _ | Http.Closed | Http.Bad _ | Http.Timeout _ | Unix.Unix_error _ -> true
  | _ -> false

(* Every fleet operation gets this many worker replacements before it gives
   up. *)
let max_restarts f = (2 * Array.length f.workers) + 2

let note_restart f =
  f.restarts <- f.restarts + 1;
  Metrics.incr m_restarts

(* One call on the main domain, outside the crew (fleet setup, install and
   teardown). *)
let solo_call f w (path, m) =
  let reply, tx, rx = Wire.call ~deadline_s:f.deadline f.workers.(w).addr ~path m in
  Metrics.add m_tx tx;
  Metrics.add m_rx rx;
  reply

let launch f w =
  let sock = Segment.scratch_path f.scratch ~name:(Printf.sprintf "w%d" w) in
  let bin = worker_bin () in
  let pid =
    Unix.create_process bin
      [| bin; "shard-worker"; sock; "--ppid"; string_of_int (Unix.getpid ()) |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let ww = f.workers.(w) in
  ww.addr <- Wire.Unix_sock sock;
  ww.pid <- Some pid;
  ww.alive <- true

(* Poll until the worker's accept loop answers a ping.  [false] when the
   forked process [pid] exits first — it is reaped here, so a dead worker is
   noticed at the next poll instead of after the timeout. *)
let await_worker ?pid ?(timeout_s = 20.) addr =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let exited () =
    match pid with
    | None -> false
    | Some p -> (
      match Unix.waitpid [ Unix.WNOHANG ] p with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error _ -> true)
  in
  let ping = Wire.msg (Json.Obj [ ("op", Json.Str "ping") ]) in
  let rec go () =
    match Wire.call ~deadline_s:5. addr ~path:"/v1/dist/ping" ping with
    | _ -> true
    | exception _ ->
      if exited () then false
      else if Unix.gettimeofday () > deadline then
        fail "dist: worker at %s did not come up within %.0fs" (Wire.addr_to_string addr)
          timeout_s
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

(* Wait for forked worker [w]; a process that exits before its first ping is
   respawned, each attempt counted as a restart. *)
let await_forked f w =
  let ww = f.workers.(w) in
  let rec go attempt =
    if not (await_worker ?pid:ww.pid ww.addr) then begin
      ww.pid <- None;
      if attempt > max_restarts f then
        fail "dist: worker %d exited before answering, %d times" w attempt;
      note_restart f;
      launch f w;
      go (attempt + 1)
    end
  in
  go 1

let kill_worker w =
  (match w.pid with
  | Some pid ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    w.pid <- None
  | None -> ());
  w.alive <- false

let open_session f ?die_after_rounds w =
  let chaos =
    match die_after_rounds with Some r -> [ ("die_after_rounds", Wire.num r) ] | None -> []
  in
  ignore (solo_call f w ("/v1/dist/open", Wire.msg (meta f "open" (f.session @ chaos))))

(* A dead worker either respawns in place with a fresh session (Fork) or
   hands its shards to the first surviving peer (Connect — pre-started
   workers are infrastructure the coordinator cannot restart).  Returns the
   worker now holding the lost shards; [why] names the fault in the error
   raised when no worker is left. *)
let replace ?(why = "worker lost") f w =
  note_restart f;
  let ww = f.workers.(w) in
  if f.fork then begin
    kill_worker ww;
    launch f w;
    await_forked f w;
    open_session f w;
    w
  end
  else begin
    ww.alive <- false;
    let surv = ref (-1) in
    Array.iteri (fun i x -> if !surv < 0 && x.alive then surv := i) f.workers;
    if !surv < 0 then fail "dist: every connected worker is gone (last fault: %s)" why;
    Array.iteri (fun k wk -> if wk = w then f.place.(k) <- !surv) f.place;
    !surv
  end

let shards_of_worker f w =
  let out = ref [] in
  for k = Array.length f.place - 1 downto 0 do
    if f.place.(k) = w then out := k :: !out
  done;
  !out

(* Close every session and, under [Fork], shut the processes down; then
   stop the dispatch crew and remove the sockets. *)
let stop_fleet f =
  Array.iteri
    (fun w ww ->
      if ww.alive then (
        try
          ignore (solo_call f w ("/v1/dist/close", Wire.msg (meta f "close" [])));
          if f.fork then ignore (solo_call f w ("/v1/dist/shutdown", Wire.msg (meta f "shutdown" [])))
        with _ -> ());
      if f.fork then kill_worker ww)
    f.workers;
  (try Crew.stop f.crew with _ -> ());
  Segment.close f.scratch

(* -- parallel dispatch ------------------------------------------------------

   The main domain builds every request payload; the crew overlaps only the
   wire round trips; the main domain consumes the replies.  Per-worker slots
   keep the crew race-free. *)

let dispatch f (reqs : (string * Wire.msg) list array) : (Wire.msg list, exn) result array =
  let nw = Array.length f.workers in
  let res = Array.make nw (Ok []) in
  let txa = Array.make nw 0 and rxa = Array.make nw 0 in
  Crew.round f.crew (fun w ->
      match reqs.(w) with
      | [] -> ()
      | rs ->
        res.(w) <-
          (try
             Ok
               (List.map
                  (fun (path, m) ->
                    let reply, tx, rx = Wire.call ~deadline_s:f.deadline f.workers.(w).addr ~path m in
                    txa.(w) <- txa.(w) + tx;
                    rxa.(w) <- rxa.(w) + rx;
                    reply)
                  rs)
           with e -> Error e));
  Metrics.add m_tx (Array.fold_left ( + ) 0 txa);
  Metrics.add m_rx (Array.fold_left ( + ) 0 rxa);
  Metrics.incr m_rounds;
  res

(* -- the fleet transport ---------------------------------------------------- *)

(* A shard's expansion verifies when it has one non-negative count per
   frontier state, exactly as many successor keys as the counts add up to,
   and every key inside the product's pair space [0, pairs). *)
let check_expansion ~pairs k frontier (counts, keys) =
  if Array.length counts <> Array.length frontier then
    bad "shard %d: %d counts for %d frontier states" k (Array.length counts)
      (Array.length frontier);
  let total =
    Array.fold_left
      (fun acc c -> if c < 0 then bad "shard %d: negative count %d" k c else acc + c)
      0 counts
  in
  if total <> Array.length keys then
    bad "shard %d: %d successor keys for counts summing to %d" k (Array.length keys) total;
  Array.iter
    (fun key -> if key < 0 || key >= pairs then bad "shard %d: successor key %d out of range" k key)
    keys

(* {!Shard.expand} over the fleet: one request per worker and level carrying
   its shards' non-empty frontiers ([f<k>]); the reply's [c<k>]/[s<k>] are
   verified before the merge sees them.  A worker that fails in transport
   or answers a reply that does not verify is replaced and its shards are
   resent — expansion is stateless, so the resend computes the same
   answer. *)
let fleet_expand f ~pairs : Shard.expand =
 fun frontier ->
  let nw = Array.length f.workers in
  let out = Array.make (Array.length frontier) ([||], [||]) in
  let live = List.filter (fun k -> Array.length frontier.(k) > 0) in
  let request ks =
    let fields =
      List.map (fun k -> (Printf.sprintf "f%d" k, Segment.Ints frontier.(k))) (live ks)
    in
    [ ("/v1/dist/expand", Wire.msg ~data:fields (meta f "expand" [])) ]
  in
  let accept ks = function
    | [ (reply : Wire.msg) ] ->
      let field name =
        match Wire.ints_opt reply.Wire.data name with
        | Some a -> a
        | None -> bad "expand reply lacks %s" name
      in
      List.iter
        (fun k ->
          let r = (field (Printf.sprintf "c%d" k), field (Printf.sprintf "s%d" k)) in
          check_expansion ~pairs k frontier.(k) r;
          out.(k) <- r)
        (live ks)
    | _ -> bad "expand: expected one reply"
  in
  let rec settle work attempt =
    let res = dispatch f (Array.map (fun ks -> if ks = [] then [] else request ks) work) in
    let retry = Array.make nw [] in
    let lost = ref false in
    Array.iteri
      (fun w r ->
        let fault =
          match r with
          | Ok _ when work.(w) = [] -> None
          | Ok replies -> (
            match accept work.(w) replies with () -> None | exception Bad_reply m -> Some m)
          | Error e -> if transport_failed e then Some (Printexc.to_string e) else raise e
        in
        match fault with
        | None -> ()
        | Some why ->
          if attempt > max_restarts f then
            fail "dist: giving up after %d worker restarts (last fault: %s)" (attempt - 1) why;
          let target = replace ~why f w in
          retry.(target) <- retry.(target) @ work.(w);
          lost := true)
      res;
    if !lost then settle retry (attempt + 1)
  in
  settle (Array.init nw (shards_of_worker f)) 1;
  out

(* -- install and post-build recovery ---------------------------------------- *)

(* Install the finished product on worker [w]: the global owner/local maps,
   then every shard placed on it, forward and predecessor segments together.
   Re-installing is idempotent. *)
let install t w =
  let f = t.fleet in
  ignore
    (solo_call f w
       ( "/v1/dist/ctx",
         Wire.msg
           ~data:
             [
               ("owner", Segment.Ints (Shard.owner t.shard));
               ("local", Segment.Ints (Shard.local t.shard));
             ]
           (meta f "ctx" []) ));
  List.iter
    (fun k ->
      let v = Shard.view t.shard k in
      ignore
        (solo_call f w
           ( "/v1/dist/adopt_seg",
             Wire.msg
               ~data:
                 [
                   ("members", Segment.Ints v.Shard.members);
                   ("row", Segment.Ints v.Shard.row);
                   ("dst", Segment.Ints v.Shard.dst);
                   ("prow", Segment.Ints v.Shard.prow);
                   ("psrc", Segment.Ints v.Shard.psrc);
                 ]
               (meta f "adopt_seg" [ ("shard", Wire.num k) ]) )))
    (shards_of_worker f w)

let worker_indices f =
  List.filter (fun w -> shards_of_worker f w <> []) (List.init (Array.length f.workers) Fun.id)

(* Run [attempt] (a whole wire operation); if it loses workers, replace
   them, reinstall the product on the replacements and run it again from
   scratch.  Every caller's operation is either an idempotent install, a
   stateless sweep or a confluent fixpoint restarted from its operands, so a
   clean re-run computes the identical result. *)
let with_recovery t attempt =
  let tries = ref 0 in
  let rec go () =
    incr tries;
    if !tries > max_restarts t.fleet then fail "dist: giving up after %d attempts" !tries;
    match attempt () with
    | Ok v -> v
    | Error failed ->
      List.iter (fun w -> install t (replace t.fleet w)) (List.sort_uniq compare failed);
      go ()
  in
  go ()

let install_all t =
  with_recovery t (fun () ->
      match
        List.filter
          (fun w -> match install t w with () -> false | exception e when transport_failed e -> true)
          (worker_indices t.fleet)
      with
      | [] -> Ok ()
      | failed -> Error failed)

(* -- explore ---------------------------------------------------------------- *)

let explore ?(config = Shard.config ()) ?chaos_die_after (left : Automaton.t)
    (right : Automaton.t) =
  let dist =
    match config.Shard.distribution with
    | Some d -> d
    | None -> invalid_arg "Distshard.explore: config has no distribution"
  in
  let shards = config.Shard.shards in
  let nw =
    match dist.Shard.dist_mode with
    | Shard.Fork n -> min n shards
    | Shard.Connect addrs -> min (List.length addrs) shards
  in
  let workers =
    match dist.Shard.dist_mode with
    | Shard.Fork _ ->
      Array.init nw (fun _ -> { addr = Wire.Unix_sock ""; pid = None; alive = false })
    | Shard.Connect addrs ->
      Array.of_list
        (List.filteri
           (fun i _ -> i < nw)
           (List.map (fun a -> { addr = Wire.addr_of_string a; pid = None; alive = true }) addrs))
  in
  let f =
    {
      deadline = dist.Shard.dist_deadline_s;
      sid = Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add sid_counter 1);
      fork = (match dist.Shard.dist_mode with Shard.Fork _ -> true | Shard.Connect _ -> false);
      session =
        [
          ("shards", Wire.num shards);
          ("left", Wire.json_of_automaton left);
          ("right", Wire.json_of_automaton right);
        ]
        @ (match config.Shard.mem_budget with Some b -> [ ("budget", Wire.num b) ] | None -> []);
      scratch = Segment.create ?dir:config.Shard.spill_dir ~name:"dist" ();
      crew = Crew.create nw;
      workers;
      place = Array.init shards (fun k -> k mod nw);
      restarts = 0;
    }
  in
  let built = ref None in
  try
    if f.fork then begin
      Array.iteri (fun w _ -> launch f w) workers;
      Array.iteri (fun w _ -> await_forked f w) workers
    end;
    Array.iteri
      (fun w ww ->
        let die_after_rounds =
          match chaos_die_after with Some (wi, r) when wi = w -> Some r | _ -> None
        in
        if ww.alive then
          try open_session f ?die_after_rounds w
          with e when transport_failed e -> ignore (replace f w))
      workers;
    let pairs = Automaton.num_states left * Automaton.num_states right in
    let shard = Shard.explore ~config ~expand:(fleet_expand f ~pairs) left right in
    let t = { fleet = f; shard; closed = false } in
    built := Some shard;
    install_all t;
    t
  with e ->
    stop_fleet f;
    Option.iter Shard.close !built;
    raise e

(* -- distributed satisfaction ----------------------------------------------- *)

(* Assemble a global result vector from per-worker replies: each state's bit
   comes from the worker owning its shard — never OR'd, so stale foreign
   bits in a worker's scratch copy (EG clears, EF dedup marks) cannot leak
   into the result. *)
let assemble t (per_worker : Bitvec.t option array) =
  let src =
    Array.mapi
      (fun k w ->
        match per_worker.(w) with Some v -> v | None -> fail "dist: shard %d's owner sent no result" k)
      t.fleet.place
  in
  let out = Bitvec.create (Shard.num_states t.shard) in
  Array.iteri (fun g k -> if Bitvec.unsafe_get src.(k) g then Bitvec.unsafe_set out g) (Shard.owner t.shard);
  out

(* One structural sweep over the fleet: exists/forall over successors. *)
let agg t ~forall (x : Bitvec.t) =
  let f = t.fleet in
  let nw = Array.length f.workers in
  with_recovery t (fun () ->
      let kind = if forall then "forall" else "exists" in
      let reqs =
        Array.init nw (fun w ->
            if shards_of_worker f w = [] then []
            else
              [
                ( "/v1/dist/agg",
                  Wire.msg ~data:[ ("x", Segment.Bits x) ]
                    (meta f "agg" [ ("kind", Json.Str kind) ]) );
              ])
      in
      let res = dispatch f reqs in
      let failed = ref [] in
      let outs = Array.make nw None in
      Array.iteri
        (fun w r ->
          match r with
          | Ok [] -> ()
          | Ok (reply :: _) -> outs.(w) <- Some (Wire.bits reply.Wire.data "out")
          | Error e -> if transport_failed e then failed := w :: !failed else raise e)
        res;
      match !failed with [] -> Ok (assemble t outs) | failed -> Error failed)

type fix_kind = Mechaml_mc.Eval.fix = Ef | Eu | Eg | Au

let kind_name = function Ef -> "ef" | Eu -> "eu" | Eg -> "eg" | Au -> "au"

(* A full distributed fixpoint: init with [init] (and guard), then rounds
   of boundary exchange until no worker emits cross-shard work, then
   collect.  Any worker loss restarts the whole fixpoint from the operands —
   the fixpoints are confluent, so the re-run converges to the same set. *)
let fixpoint t kind ~(init : Bitvec.t) ~(guard : Bitvec.t option) =
  let f = t.fleet in
  let nw = Array.length f.workers in
  let shards = Shard.shards t.shard in
  with_recovery t (fun () ->
      let exception Lost of int in
      try
        let act = worker_indices f in
        let init_data =
          ("seed", Segment.Bits init)
          :: (match guard with Some g -> [ ("guard", Segment.Bits g) ] | None -> [])
        in
        let send_all mk =
          let reqs = Array.make nw [] in
          List.iter (fun w -> reqs.(w) <- mk w) act;
          let res = dispatch f reqs in
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
                     (meta f "fix_init" [ ("kind", Json.Str (kind_name kind)) ]) );
               ]));
        (* boundary exchange rounds until quiescence *)
        let inbox = ref [] in
        let quiet = ref false in
        while not !quiet do
          let routed = Array.make shards [] in
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
                    (shards_of_worker f w)
                in
                [ ("/v1/dist/fix_round", Wire.msg ~data:fields (meta f "fix_round" [])) ])
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
                        | Some k when k >= 0 && k < shards ->
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
          send_all (fun _ -> [ ("/v1/dist/fix_done", Wire.msg (meta f "fix_done" [])) ])
        in
        Array.iteri
          (fun w rs ->
            match rs with
            | [] -> ()
            | reply :: _ -> outs.(w) <- Some (Wire.bits reply.Wire.data "out"))
          replies;
        Ok (assemble t outs)
      with Lost w -> Error [ w ])

(* -- accessors -------------------------------------------------------------- *)

let shard t = t.shard

let num_states t = Shard.num_states t.shard

let num_transitions t = Shard.num_transitions t.shard

let manager t = Shard.manager t.shard

let restarts t = t.fleet.restarts

let close t =
  if not t.closed then begin
    t.closed <- true;
    stop_fleet t.fleet;
    Shard.close t.shard
  end
