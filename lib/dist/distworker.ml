(* The worker half of the distributed shard tier: a [mechaverify
   shard-worker] process (or an in-process domain in tests) that owns a
   subset of shards.  It holds the heavy, O(edges) data — join expansion
   buffers, forward and predecessor CSR segments under its own memory
   budget — while the coordinator ({!Distshard}) keeps the discovery-order
   interning and every verdict-bearing decision.  All state is per-session,
   so one worker serves any number of concurrent coordinators. *)

module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Ivec = Mechaml_util.Ivec
module Json = Mechaml_obs.Json
module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Http = Mechaml_wire.Http
module Wire = Mechaml_wire.Shardwire

exception Die
(* test chaos hook: simulate a crash mid-round (see [die_after] below) *)

(* -- per-session state ------------------------------------------------------ *)

type shard_state = {
  mem : Ivec.t;  (* member gids, ascending *)
  keys : Ivec.t;  (* packed pair key per member *)
  cnts : Ivec.t;  (* joint-move count per expanded member; length = expansion cursor *)
  edges : Ivec.t;  (* dst gids for expanded members, in merge order *)
  mutable echunks : (string * int) list;  (* spilled edge chunks, newest first *)
}

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
  sid : string;
  left : Automaton.t;
  right : Automaton.t;
  nr : int;
  shards : int;
  mgr : Segment.t;
  owned : bool array;
  joins :
    ((Automaton.state * Automaton.state) -> (Automaton.trans -> Automaton.trans -> unit) -> int)
    option
    array;
  ss : shard_state array;
  fwd : Segment.slot option array;
  pred : Segment.slot option array;
  g2l : (int, int) Hashtbl.t array;  (* gid -> local, per owned shard *)
  budget : int option;
  mutable owner_g : int array;  (* global owner map, from the scatter phase *)
  mutable local_g : int array;
  mutable fix : fix_state option;
  mutable rounds : int;
  mutable uniq : int;  (* uniquifies segment names across adopt cycles *)
  die_after : int option;
}

let fresh_shard_state () =
  {
    mem = Ivec.create ();
    keys = Ivec.create ();
    cnts = Ivec.create ();
    edges = Ivec.create ();
    echunks = [];
  }

let join s k =
  match s.joins.(k) with
  | Some j -> j
  | None ->
    let j = Compose.joint_iter s.left s.right in
    s.joins.(k) <- Some j;
    j

(* Edge buffers spill to session scratch at half the budget, exactly like
   the in-process construction. *)
let flush_edges s =
  match s.budget with
  | None -> ()
  | Some budget ->
    let total =
      Array.fold_left (fun acc st -> acc + Ivec.capacity_bytes st.edges) 0 s.ss
    in
    if total > budget / 2 then
      Array.iteri
        (fun k st ->
          if Ivec.length st.edges > 0 then begin
            let path = Segment.scratch_path s.mgr ~name:(Printf.sprintf "edges%d" k) in
            Segment.save ~path [ ("e", Segment.Ints (Ivec.to_array st.edges)) ];
            st.echunks <- (path, Ivec.length st.edges) :: st.echunks;
            Ivec.reset st.edges
          end)
        s.ss

let ints_field data name = Wire.ints data name

let field_opt data name = Wire.ints_opt data name

(* -- build phase ------------------------------------------------------------ *)

(* Apply one round's inputs for shard [k]: the edge delta for members merged
   last round, then the freshly interned members. *)
let apply_shard_inputs s k data =
  let st = s.ss.(k) in
  (match field_opt data (Printf.sprintf "e%d" k) with
  | Some e -> Ivec.append st.edges e
  | None -> ());
  (match
     (field_opt data (Printf.sprintf "mg%d" k), field_opt data (Printf.sprintf "mk%d" k))
   with
  | Some mg, Some mk ->
    if Array.length mg <> Array.length mk then raise (Wire.Wire_error "worker: ragged member batch");
    Array.iter (fun g -> Ivec.push st.mem g) mg;
    Array.iter (fun key -> Ivec.push st.keys key) mk
  | None, None -> ()
  | _ -> raise (Wire.Wire_error "worker: member gids without keys"))

(* Expand every not-yet-expanded member of shard [k]; returns the counts and
   flattened successor keys in member order (the coordinator's merge
   consumes them in exactly this order). *)
let expand_shard s k =
  let st = s.ss.(k) in
  let stop = Ivec.length st.mem in
  let start = Ivec.length st.cnts in
  if start >= stop then None
  else begin
    let out = Ivec.create () in
    let cs = Array.make (stop - start) 0 in
    let j = join s k in
    for m = start to stop - 1 do
      let key = Ivec.get st.keys m in
      let c =
        j
          (key / s.nr, key mod s.nr)
          (fun (tr : Automaton.trans) (tr' : Automaton.trans) ->
            Ivec.push out ((tr.Automaton.dst * s.nr) + tr'.Automaton.dst))
      in
      cs.(m - start) <- c;
      Ivec.push st.cnts c
    done;
    Some (cs, Ivec.to_array out)
  end

(* test/smoke hook: slow build rounds down so an external harness has a
   window to kill a worker mid-build *)
let throttle_s =
  lazy
    (match Sys.getenv_opt "MECHAVERIFY_DIST_THROTTLE_MS" with
    | Some v -> ( match int_of_string_opt v with Some ms when ms > 0 -> float_of_int ms /. 1000. | _ -> 0.)
    | None -> 0.)

let round s data =
  s.rounds <- s.rounds + 1;
  (match s.die_after with
  | Some r when s.rounds > r -> raise Die
  | _ -> ());
  (let t = Lazy.force throttle_s in
   if t > 0. then Unix.sleepf t);
  for k = 0 to s.shards - 1 do
    if s.owned.(k) then apply_shard_inputs s k data
  done;
  flush_edges s;
  let out = ref [] in
  for k = s.shards - 1 downto 0 do
    if s.owned.(k) then
      match expand_shard s k with
      | Some (cs, keys) ->
        out :=
          (Printf.sprintf "c%d" k, Segment.Ints cs)
          :: (Printf.sprintf "s%d" k, Segment.Ints keys)
          :: !out
      | None -> ()
  done;
  !out

(* Finalize the forward CSR for every owned shard: row from the recorded
   joint-move counts, dst from the spilled chunks plus the live tail. *)
let finish s data =
  for k = 0 to s.shards - 1 do
    (* skip shards already finalized: a repeated (empty) finish after an
       adopt cycle must not rebuild or double-apply anything *)
    if s.owned.(k) && s.fwd.(k) = None then begin
      apply_shard_inputs s k data;
      let st = s.ss.(k) in
      let size = Ivec.length st.mem in
      if Ivec.length st.cnts <> size then
        raise (Wire.Wire_error "worker: finish with unexpanded members");
      let row = Array.make (size + 1) 0 in
      for m = 0 to size - 1 do
        row.(m + 1) <- row.(m) + Ivec.get st.cnts m
      done;
      let dst = Array.make (max row.(size) 1) 0 in
      let cursor = ref 0 in
      List.iter
        (fun (path, len) ->
          (match Segment.load ~path with
          | Ok payload -> (
            match List.assoc_opt "e" payload with
            | Some (Segment.Ints a) -> Array.blit a 0 dst !cursor len
            | _ -> raise (Segment.Spill_error "worker edge chunk missing field"))
          | Error m -> raise (Segment.Spill_error m));
          (try Sys.remove path with Sys_error _ -> ());
          cursor := !cursor + len)
        (List.rev st.echunks);
      Array.blit st.edges.Ivec.a 0 dst !cursor (Ivec.length st.edges);
      if !cursor + Ivec.length st.edges <> row.(size) then
        raise (Wire.Wire_error "worker: edge delta total does not match joint-move counts");
      st.echunks <- [];
      Ivec.reset st.edges;
      let members = Ivec.to_array st.mem in
      let tbl = Hashtbl.create (max 16 size) in
      Array.iteri (fun m g -> Hashtbl.replace tbl g m) members;
      s.g2l.(k) <- tbl;
      s.uniq <- s.uniq + 1;
      s.fwd.(k) <-
        Some
          (Segment.add s.mgr
             ~name:(Printf.sprintf "fwd%d_%d" k s.uniq)
             [
               ("members", Segment.Ints members);
               ("row", Segment.Ints row);
               ("dst", Segment.Ints dst);
             ])
    end
  done

let fwd_view s k =
  match s.fwd.(k) with
  | None -> raise (Wire.Wire_error "worker: shard not finalized")
  | Some slot ->
    let p = Segment.get s.mgr slot in
    (ints_field p "members", ints_field p "row", ints_field p "dst")

let pred_view s k =
  match s.pred.(k) with
  | None -> raise (Wire.Wire_error "worker: shard has no predecessor segment")
  | Some slot ->
    let p = Segment.get s.mgr slot in
    (ints_field p "prow", ints_field p "psrc")

(* Scatter: for every owned source shard, route each edge to its
   destination's owning shard as a (local dst, src gid) pair — one field per
   (source shard, destination shard), so the coordinator can deliver batches
   in global source-shard order. *)
let scatter s data =
  s.owner_g <- ints_field data "owner";
  s.local_g <- ints_field data "local";
  let out = ref [] in
  for k = s.shards - 1 downto 0 do
    if s.owned.(k) then begin
      let members, row, dst = fwd_view s k in
      let buckets = Array.init s.shards (fun _ -> Ivec.create ()) in
      Array.iteri
        (fun m src ->
          for e = row.(m) to row.(m + 1) - 1 do
            let d = dst.(e) in
            let kk = s.owner_g.(d) in
            Ivec.push buckets.(kk) s.local_g.(d);
            Ivec.push buckets.(kk) src
          done)
        members;
      for kk = s.shards - 1 downto 0 do
        if Ivec.length buckets.(kk) > 0 then
          out :=
            (Printf.sprintf "p%d_%d" k kk, Segment.Ints (Ivec.to_array buckets.(kk)))
            :: !out
      done
    end
  done;
  !out

(* Build the predecessor CSR for one owned shard from the routed pairs
   (already concatenated in source-shard order by the coordinator), then
   ship the complete segment back — the coordinator's banked copy is the
   recovery generation. *)
let pred s k data =
  let members, row, dst = fwd_view s k in
  match s.pred.(k) with
  | Some slot ->
    (* already built (repeated request after a mid-phase recovery
       elsewhere): re-ship the existing segment *)
    let p = Segment.get s.mgr slot in
    [
      ("members", Segment.Ints members);
      ("row", Segment.Ints row);
      ("dst", Segment.Ints dst);
      ("prow", Segment.Ints (ints_field p "prow"));
      ("psrc", Segment.Ints (ints_field p "psrc"));
    ]
  | None ->
  let pairs = ints_field data "pairs" in
  let size = Array.length members in
  let pcnt = Array.make (max size 1) 0 in
  let i = ref 0 in
  let np = Array.length pairs in
  if np mod 2 <> 0 then raise (Wire.Wire_error "worker: ragged scatter pairs");
  while !i < np do
    pcnt.(pairs.(!i)) <- pcnt.(pairs.(!i)) + 1;
    i := !i + 2
  done;
  let prow = Array.make (size + 1) 0 in
  for m = 0 to size - 1 do
    prow.(m + 1) <- prow.(m) + pcnt.(m)
  done;
  let psrc = Array.make (max prow.(size) 1) 0 in
  let cursor = Array.copy prow in
  i := 0;
  while !i < np do
    let ld = pairs.(!i) and src = pairs.(!i + 1) in
    psrc.(cursor.(ld)) <- src;
    cursor.(ld) <- cursor.(ld) + 1;
    i := !i + 2
  done;
  s.uniq <- s.uniq + 1;
  s.pred.(k) <-
    Some
      (Segment.add s.mgr
         ~name:(Printf.sprintf "pred%d_%d" k s.uniq)
         [ ("prow", Segment.Ints prow); ("psrc", Segment.Ints psrc) ]);
  [
    ("members", Segment.Ints members);
    ("row", Segment.Ints row);
    ("dst", Segment.Ints dst);
    ("prow", Segment.Ints prow);
    ("psrc", Segment.Ints psrc);
  ]

(* -- recovery: adopt shards re-dispatched by the coordinator ---------------- *)

(* Mid-build adoption: the coordinator replays the shard's entire merged
   truth (members, per-member counts, edge history); expansion resumes at
   the first unmerged member.  Deterministic join enumeration makes the
   rebuilt state byte-identical to the lost worker's. *)
let adopt s ks expanded data =
  List.iter2
    (fun k exp_k ->
      s.owned.(k) <- true;
      let st = fresh_shard_state () in
      s.ss.(k) <- st;
      Ivec.append st.mem (ints_field data (Printf.sprintf "mg%d" k));
      Ivec.append st.keys (ints_field data (Printf.sprintf "mk%d" k));
      let deg = ints_field data (Printf.sprintf "deg%d" k) in
      if Array.length deg <> exp_k then raise (Wire.Wire_error "worker: adopt degree mismatch");
      Ivec.append st.cnts deg;
      Ivec.append st.edges (ints_field data (Printf.sprintf "e%d" k));
      s.fwd.(k) <- None;
      s.pred.(k) <- None)
    ks expanded;
  flush_edges s

(* Post-build adoption: the coordinator re-ships the banked, digest-checked
   segment generation. *)
let adopt_seg s k data =
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
    let owned = Array.make shards false in
    List.iter
      (fun k ->
        if k < 0 || k >= shards then raise (Wire.Wire_error "worker: owned shard out of range");
        owned.(k) <- true)
      (Wire.jints meta "owned");
    (match Hashtbl.find_opt t.sessions sid with
    | Some old -> Segment.close old.mgr
    | None -> ());
    let s =
      {
        sid;
        left;
        right;
        nr = Automaton.num_states right;
        shards;
        mgr = Segment.create ?budget ~name:(Printf.sprintf "distw-%d" (Unix.getpid ())) ();
        owned;
        joins = Array.make shards None;
        ss = Array.init shards (fun _ -> fresh_shard_state ());
        fwd = Array.make shards None;
        pred = Array.make shards None;
        g2l = Array.init shards (fun _ -> Hashtbl.create 16);
        budget;
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
  | "round" -> ok (round (session ()) data)
  | "finish" ->
    finish (session ()) data;
    ok []
  | "scatter" -> ok (scatter (session ()) data)
  | "pred" ->
    let s = session () in
    ok (pred s (Wire.jint meta "shard") data)
  | "adopt" ->
    let s = session () in
    adopt s (Wire.jints meta "shards") (Wire.jints meta "expanded") data;
    ok []
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

let handle_conn t fd =
  let conn = Http.conn ~read_timeout_s:60. ~write_timeout_s:60. fd in
  Fun.protect
    ~finally:(fun () -> Http.close conn)
    (fun () ->
      match Http.read_request ~max_body:max_int conn with
      | exception (Http.Closed | Http.Bad _ | Http.Timeout _) -> ()
      | req -> (
        match handle_msg t (Wire.decode req.Http.body) with
        | reply -> Http.respond conn ~status:200 (Wire.encode reply)
        | exception Die -> raise Die
        | exception Wire.Wire_error m -> Http.respond conn ~status:400 m
        | exception Segment.Spill_error m -> Http.respond conn ~status:400 ("spill: " ^ m)))

(* Accept loop: [select] with a one-second tick so a forked worker notices
   its coordinator's death (reparenting) and exits instead of leaking. *)
let serve t =
  (try
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
  | Unix.Unix_error (Unix.EBADF, _, _) -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Hashtbl.iter (fun _ s -> Segment.close s.mgr) t.sessions;
  Hashtbl.reset t.sessions

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
