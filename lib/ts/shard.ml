module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Ivec = Mechaml_util.Ivec
module Itbl = Mechaml_util.Itbl
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_spills =
  Metrics.counter "mc_shard_spills_total"
    ~help:"Shard segments written to spill files under the memory budget."

let m_reloads =
  Metrics.counter "mc_shard_reloads_total"
    ~help:"Shard segments reloaded from spill files."

let m_spill_bytes =
  Metrics.counter "mc_shard_spill_bytes_total"
    ~help:"Resident bytes released by shard segment spills."

let m_build_rounds =
  Metrics.counter "mc_shard_build_rounds_total"
    ~help:"Level-synchronized BFS rounds across sharded product constructions."

let m_crew_levels =
  Metrics.counter "mc_shard_crew_levels_total"
    ~help:"BFS levels of in-process sharded builds expanded on a worker-domain crew."

type dist_mode =
  | Fork of int
  | Connect of string list

type distribution = {
  dist_mode : dist_mode;
  dist_deadline_s : float;
}

let distribution ?(deadline_s = 120.) dist_mode =
  (match dist_mode with
  | Fork n when n < 1 -> invalid_arg "Shard.distribution: Fork needs >= 1 worker"
  | Connect [] -> invalid_arg "Shard.distribution: Connect needs >= 1 address"
  | _ -> ());
  if deadline_s <= 0. then invalid_arg "Shard.distribution: deadline must be positive";
  { dist_mode; dist_deadline_s = deadline_s }

type config = {
  shards : int;
  mem_budget : int option;
  spill_dir : string option;
  workers : int option;
  distribution : distribution option;
}

let config ?(shards = 1) ?mem_budget ?spill_dir ?workers ?distribution () =
  if shards < 1 then invalid_arg "Shard.config: shards must be >= 1";
  (match workers with
  | Some w when w < 1 -> invalid_arg "Shard.config: workers must be >= 1"
  | _ -> ());
  { shards; mem_budget; spill_dir; workers; distribution }

type view = {
  members : int array;
  row : int array;
  dst : int array;
  prow : int array;
  psrc : int array;
}

type t = {
  config : config;
  n : int;
  transitions : int;
  initial : int list;
  owner : int array;
  local : int array;
  labels : Bitset.t array;
  props : Universe.t;
  blocking : Bitvec.t;
  sizes : int array;
  mgr : Segment.t;
  fwd_slots : Segment.slot array; (* members / row / dst per shard *)
  pred_slots : Segment.slot array; (* prow / psrc per shard *)
}

(* -- round-synchronized worker crew ----------------------------------------

   Expansion within a BFS level is embarrassingly parallel once each shard
   owns its join closure and output buffers: worker [w] processes exactly
   the shards [k] with [k mod workers = w], so no two domains ever touch
   the same buffer, and the serial merge that follows consumes the buffers
   in global id order — scheduling cannot leak into the numbering.  The
   crew is persistent across rounds (a BFS can run thousands of levels;
   spawning domains per level would dominate). *)

module Crew = struct
  type t = {
    m : Mutex.t;
    cv : Condition.t;
    size : int;
    mutable generation : int;
    mutable fn : int -> unit;
    mutable finished : int;
    mutable quit : bool;
    mutable err : exn option;
    mutable domains : unit Domain.t array;
  }

  let create size =
    let t =
      {
        m = Mutex.create ();
        cv = Condition.create ();
        size;
        generation = 0;
        fn = ignore;
        finished = 0;
        quit = false;
        err = None;
        domains = [||];
      }
    in
    let worker w () =
      let seen = ref 0 in
      Mutex.lock t.m;
      while not t.quit do
        while t.generation = !seen && not t.quit do
          Condition.wait t.cv t.m
        done;
        if not t.quit then begin
          seen := t.generation;
          let fn = t.fn in
          Mutex.unlock t.m;
          let r = try Ok (fn w) with e -> Error e in
          Mutex.lock t.m;
          (match r with
          | Ok () -> ()
          | Error e -> if t.err = None then t.err <- Some e);
          t.finished <- t.finished + 1;
          Condition.broadcast t.cv
        end
      done;
      Mutex.unlock t.m
    in
    t.domains <- Array.init size (fun w -> Domain.spawn (worker w));
    t

  let round t fn =
    Mutex.lock t.m;
    t.fn <- fn;
    t.finished <- 0;
    t.err <- None;
    t.generation <- t.generation + 1;
    Condition.broadcast t.cv;
    while t.finished < t.size do
      Condition.wait t.cv t.m
    done;
    let err = t.err in
    Mutex.unlock t.m;
    match err with None -> () | Some e -> raise e

  let stop t =
    Mutex.lock t.m;
    t.quit <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains
end

let ints payload name =
  match List.assoc_opt name payload with
  | Some (Segment.Ints a) -> a
  | _ -> raise (Segment.Spill_error ("shard segment field missing: " ^ name))

type expand = int array array -> (int array * int array) array

(* The default transport: expansion in this process.  The join memoizes
   per-interaction keys and per-right-state buckets in plain hash tables, so
   sharing one across worker domains would race — crew member [w] owns join
   [w] and expands exactly the shards [k] with [k mod size = w].  By default
   every level runs inline on join 0: a crew pays for its spawn, a cold
   first round, a wake-up per level and a cross-domain barrier on every
   minor collection of the serial merge, which on the [wide_sharded] tori
   (widest level about 3k keys) and on meshes (one state per level) costs
   more than it shares.  [config.workers = Some w] fans every level out to
   a crew of [min shards w] domains.  Returns the transport, where it runs
   (the [fanout] trace arg), and the function that stops the crew. *)
let local_expand config left right =
  let shards = config.shards in
  let nr = Automaton.num_states right in
  let size = match config.workers with Some w -> min shards w | None -> 1 in
  let joins = Array.init size (fun _ -> Compose.joint_iter left right) in
  let succ = Array.init shards (fun _ -> Ivec.create ()) in
  let out = Array.make shards ([||], [||]) in
  let expand_shard join frontier k =
    if Array.length frontier.(k) = 0 then out.(k) <- ([||], [||])
    else begin
      let keys = succ.(k) in
      Ivec.clear keys;
      let counts =
        Array.map
          (fun key ->
            join (key / nr, key mod nr) (fun (tr : Automaton.trans) (tr' : Automaton.trans) ->
                Ivec.push keys ((tr.dst * nr) + tr'.dst)))
          frontier.(k)
      in
      out.(k) <- (counts, Ivec.to_array keys)
    end
  in
  if size = 1 then
    ( (fun frontier ->
        for k = 0 to shards - 1 do
          expand_shard joins.(0) frontier k
        done;
        out),
      "inline",
      ignore )
  else begin
    let crew = Crew.create size in
    ( (fun frontier ->
        Crew.round crew (fun w ->
            let k = ref w in
            while !k < shards do
              expand_shard joins.(w) frontier !k;
              k := !k + size
            done);
        Metrics.incr m_crew_levels;
        out),
      "crew",
      fun () -> Crew.stop crew )
  end

(* A predecessor pair packs the local destination above the global source
   id, each in as many bits as the state count needs, so the product is
   capped at [max_states]: both halves then fit one 63-bit word.  (Its
   resident per-state metadata alone would pass 100 GB first.)  One word
   per pair halves the scatter buffers, and with them the chunks spilled
   under a budget. *)
let max_states = 1 lsl 31

let explore ?(config = config ()) ?expand (left : Automaton.t) (right : Automaton.t) =
  if not (Automaton.composable left right) then
    invalid_arg
      (Printf.sprintf "Shard.explore: %s and %s are not composable" left.Automaton.name
         right.Automaton.name);
  if not (Universe.disjoint left.Automaton.props right.Automaton.props) then
    invalid_arg "Shard.explore: proposition universes overlap";
  let shards = config.shards in
  let props = Universe.union left.Automaton.props right.Automaton.props in
  let lp_size = Universe.size left.Automaton.props in
  let nr = Automaton.num_states right in
  (* The partition: a 64-bit mix of the packed pair key, so structured
     state spaces (pair keys are [l * nr + r]) spread evenly over any shard
     count.  Pure arithmetic — identical across runs, transports and
     budgets. *)
  let shard_of key = if shards = 1 then 0 else Itbl.mix key mod shards in
  let mgr =
    Segment.create ?budget:config.mem_budget ?dir:config.spill_dir
      ~on_spill:(fun bytes ->
        Metrics.incr m_spills;
        Metrics.add m_spill_bytes bytes)
      ~on_reload:(fun _ -> Metrics.incr m_reloads)
      ~name:"shard" ()
  in
  try
    (* one interning table over all shards; per-shard construction state *)
    let tbl = Itbl.create 256 in
    let members = Array.init shards (fun _ -> Ivec.create ()) in
    let frontier = Array.init shards (fun _ -> Ivec.create ()) in
    let deg = Array.init shards (fun _ -> Ivec.create ()) in
    let edges = Array.init shards (fun _ -> Ivec.create ()) in
    let echunks = Array.make shards [] in
    (* global discovery-order state *)
    let owner = Ivec.create () in
    let local = Ivec.create () in
    let labs = Ivec.create () in
    let intern key =
      let fresh = Ivec.length owner in
      let id = Itbl.find_or_add tbl key fresh in
      if id = fresh then begin
        if fresh = max_states then
          invalid_arg "Shard.explore: the product exceeds 2^31 states";
        let k = shard_of key in
        Ivec.push owner k;
        Ivec.push local (Ivec.length members.(k));
        Ivec.push members.(k) id;
        Ivec.push frontier.(k) key;
        Ivec.push labs
          (Bitset.to_int
             (Bitset.union
                (Automaton.label left (key / nr))
                (Bitset.shift lp_size (Automaton.label right (key mod nr)))))
      end;
      id
    in
    let initial =
      List.concat_map
        (fun q -> List.map (fun q' -> intern ((q * nr) + q')) right.Automaton.initial)
        left.Automaton.initial
    in
    let expand, fanout, stop_expand =
      match expand with
      | Some f -> (f, "fleet", ignore)
      | None -> local_expand config left right
    in
    (* Edge and scatter buffers are flushed to scratch chunk files once they
       pass half the budget: construction keeps the same watermark
       discipline as the finished segments. *)
    let flush ~what bufs chunks =
      match config.mem_budget with
      | None -> ()
      | Some budget ->
        let total = Array.fold_left (fun acc v -> acc + Ivec.capacity_bytes v) 0 bufs in
        if total > budget / 2 then
          Array.iteri
            (fun k v ->
              if Ivec.length v > 0 then begin
                let path = Segment.scratch_path mgr ~name:(Printf.sprintf "%s%d" what k) in
                Segment.save ~path [ (what, Segment.Ints (Ivec.to_array v)) ];
                Metrics.incr m_spills;
                Metrics.add m_spill_bytes (Ivec.capacity_bytes v);
                chunks.(k) <- (path, Ivec.length v) :: chunks.(k);
                Ivec.reset v
              end)
            bufs
    in
    (* [chunks] in the order written, each loaded, handed to [f] with its
       length, and removed *)
    let drain ~what chunks f =
      List.iter
        (fun (path, len) ->
          (match Segment.load ~path with
          | Ok payload -> f (ints payload what) len
          | Error m -> raise (Segment.Spill_error m));
          try Sys.remove path with Sys_error _ -> ())
        (List.rev chunks)
    in
    let round = ref 0 in
    (* per-shard read cursors into a level's answer *)
    let ccur = Array.make shards 0 and kcur = Array.make shards 0 in
    Fun.protect ~finally:stop_expand (fun () ->
        let lo = ref 0 in
        while !lo < Ivec.length owner do
          let hi = Ivec.length owner in
          let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
          (* expand: each shard's frontier, in discovery order *)
          let level =
            Array.map
              (fun f ->
                if Ivec.length f = 0 then [||]
                else begin
                  let a = Ivec.to_array f in
                  Ivec.clear f;
                  a
                end)
              frontier
          in
          let out = expand level in
          (* merge: serial, in global id order — the boundary exchange.  The
             numbering this hands out is exactly the single-queue BFS order,
             whatever the shard count, transport or scheduling. *)
          Array.fill ccur 0 shards 0;
          Array.fill kcur 0 shards 0;
          for gid = !lo to hi - 1 do
            let k = Ivec.get owner gid in
            let counts, keys = out.(k) in
            let c = counts.(ccur.(k)) in
            ccur.(k) <- ccur.(k) + 1;
            Ivec.push deg.(k) c;
            let base = kcur.(k) in
            for j = base to base + c - 1 do
              Ivec.push edges.(k) (intern keys.(j))
            done;
            kcur.(k) <- base + c
          done;
          flush ~what:"e" edges echunks;
          incr round;
          (match t0 with
          | Some start_us ->
            Trace.complete ~name:"ts.shard.round" ~start_us
              ~args:
                [
                  ("round", Trace.Int !round);
                  ("frontier", Trace.Int (hi - !lo));
                  ("fanout", Trace.Str fanout);
                ]
              ()
          | None -> ());
          lo := hi
        done);
    Metrics.add m_build_rounds !round;
    Itbl.reset tbl;
    let n = Ivec.length owner in
    let owner = Ivec.to_array owner in
    let local = Ivec.to_array local in
    let labels = Array.init n (fun i -> Bitset.of_int_unsafe (Ivec.get labs i)) in
    let sizes = Array.map Ivec.length members in
    (* Finalization in one pass over the forward CSR: while a shard's
       [row]/[dst] are in hand, count each destination's predecessors (into
       its shard's [prow], shifted by one) and scatter the (local
       destination, source) pairs, one word each, to the destination's
       shard — chunked to scratch files under the budget like the edges.
       The forward segments are never read back during the build. *)
    let pair_bits =
      let b = ref 1 in
      while 1 lsl !b < n do
        incr b
      done;
      !b
    in
    let blocking = Bitvec.create n in
    let transitions = ref 0 in
    let prows = Array.map (fun size -> Array.make (size + 1) 0) sizes in
    let scatter = Array.init shards (fun _ -> Ivec.create ()) in
    let pchunks = Array.make shards [] in
    let fwd_slots =
      Array.init shards (fun k ->
          let size = sizes.(k) in
          let mem = Ivec.to_array members.(k) in
          Ivec.reset members.(k);
          let row = Array.make (size + 1) 0 in
          for m = 0 to size - 1 do
            let d = Ivec.get deg.(k) m in
            row.(m + 1) <- row.(m) + d;
            if d = 0 then Bitvec.unsafe_set blocking mem.(m)
          done;
          transitions := !transitions + row.(size);
          let dst = Array.make (max row.(size) 1) 0 in
          let cursor = ref 0 in
          drain ~what:"e" echunks.(k) (fun chunk len ->
              Array.blit chunk 0 dst !cursor len;
              cursor := !cursor + len);
          Array.blit edges.(k).Ivec.a 0 dst !cursor (Ivec.length edges.(k));
          Ivec.reset edges.(k);
          Ivec.reset deg.(k);
          echunks.(k) <- [];
          for m = 0 to size - 1 do
            let src = mem.(m) in
            for e = row.(m) to row.(m + 1) - 1 do
              let d = dst.(e) in
              let kk = owner.(d) and ld = local.(d) in
              let prow = prows.(kk) in
              prow.(ld + 1) <- prow.(ld + 1) + 1;
              Ivec.push scatter.(kk) ((ld lsl pair_bits) lor src)
            done
          done;
          flush ~what:"p" scatter pchunks;
          Segment.add mgr
            ~name:(Printf.sprintf "fwd%d" k)
            [ ("members", Segment.Ints mem); ("row", Segment.Ints row); ("dst", Segment.Ints dst) ])
    in
    let pred_slots =
      Array.init shards (fun k ->
          let size = sizes.(k) in
          let prow = prows.(k) in
          prows.(k) <- [||];
          for m = 0 to size - 1 do
            prow.(m + 1) <- prow.(m) + prow.(m + 1)
          done;
          let psrc = Array.make (max prow.(size) 1) 0 in
          let cursor = Array.copy prow in
          let fill pairs len =
            for i = 0 to len - 1 do
              let p = pairs.(i) in
              let ld = p lsr pair_bits in
              psrc.(cursor.(ld)) <- p land ((1 lsl pair_bits) - 1);
              cursor.(ld) <- cursor.(ld) + 1
            done
          in
          drain ~what:"p" pchunks.(k) fill;
          fill scatter.(k).Ivec.a (Ivec.length scatter.(k));
          Ivec.reset scatter.(k);
          pchunks.(k) <- [];
          Segment.add mgr
            ~name:(Printf.sprintf "pred%d" k)
            [ ("prow", Segment.Ints prow); ("psrc", Segment.Ints psrc) ])
    in
    {
      config;
      n;
      transitions = !transitions;
      initial;
      owner;
      local;
      labels;
      props;
      blocking;
      sizes;
      mgr;
      fwd_slots;
      pred_slots;
    }
  with e ->
    Segment.close mgr;
    raise e

let num_states t = t.n

let num_transitions t = t.transitions

let initial t = t.initial

let shards t = t.config.shards

let sizes t = t.sizes

let owner t = t.owner

let local t = t.local

let labels t = t.labels

let props t = t.props

let blocking t = t.blocking

let view t k =
  let pf = Segment.get t.mgr t.fwd_slots.(k) in
  let pp = Segment.get t.mgr t.pred_slots.(k) in
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

let close t = Segment.close t.mgr
