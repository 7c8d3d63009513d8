module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Ivec = Mechaml_util.Ivec
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

(* The partition function: a 64-bit mix of the packed pair key, so that
   structured state spaces (pair keys are [l * n_r + r]) spread evenly over
   any shard count.  Pure arithmetic — the partition is identical across
   runs, worker counts, and budgets. *)
let mix key =
  let h = key * 0x1E3779B97F4A7C15 in
  let h = h lxor (h lsr 31) in
  let h = h * 0x3F58476D1CE4E5B9 in
  let h = h lxor (h lsr 27) in
  h land max_int

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

(* The default transport: expansion in this process, one join closure per
   shard.  The join memoizes per-interaction keys and per-right-state buckets
   in plain hash tables, so sharing one across worker domains would race — a
   private closure per shard keeps every mutable structure single-owner.
   Returns the transport and the function that stops its crew. *)
let local_expand config left right =
  let shards = config.shards in
  let nr = Automaton.num_states right in
  let joins = Array.init shards (fun _ -> Compose.joint_iter left right) in
  let succ = Array.init shards (fun _ -> Ivec.create ()) in
  let out = Array.make shards ([||], [||]) in
  let workers =
    if shards = 1 then 1
    else
      min shards
        (match config.workers with
        | Some w -> w
        | None -> Domain.recommended_domain_count ())
  in
  let crew = if workers > 1 then Some (Crew.create workers) else None in
  let expand_shard frontier k =
    let keys = succ.(k) and join = joins.(k) in
    Ivec.clear keys;
    let counts =
      Array.map
        (fun key ->
          join (key / nr, key mod nr) (fun (tr : Automaton.trans) (tr' : Automaton.trans) ->
              Ivec.push keys ((tr.dst * nr) + tr'.dst)))
        frontier.(k)
    in
    out.(k) <- (counts, Ivec.to_array keys)
  in
  let expand frontier =
    (match crew with
    | Some c ->
      Crew.round c (fun w ->
          let k = ref w in
          while !k < shards do
            expand_shard frontier !k;
            k := !k + workers
          done)
    | None ->
      for k = 0 to shards - 1 do
        expand_shard frontier k
      done);
    out
  in
  (expand, fun () -> Option.iter Crew.stop crew)

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
  let shard_of key = if shards = 1 then 0 else mix key mod shards in
  let mgr =
    Segment.create ?budget:config.mem_budget ?dir:config.spill_dir
      ~on_spill:(fun bytes ->
        Metrics.incr m_spills;
        Metrics.add m_spill_bytes bytes)
      ~on_reload:(fun _ -> Metrics.incr m_reloads)
      ~name:"shard" ()
  in
  try
    (* per-shard interning and construction state *)
    let tbl = Array.init shards (fun _ -> Hashtbl.create 256) in
    let members = Array.init shards (fun _ -> Ivec.create ()) in
    let frontier = Array.init shards (fun _ -> Ivec.create ()) in
    let deg = Array.init shards (fun _ -> Ivec.create ()) in
    let edges = Array.init shards (fun _ -> Ivec.create ()) in
    let echunks = Array.make shards [] in
    (* global discovery-order state *)
    let owner = Ivec.create () in
    let local = Ivec.create () in
    let labs = Ivec.create () in
    let intern s s' =
      let key = (s * nr) + s' in
      let k = shard_of key in
      match Hashtbl.find_opt tbl.(k) key with
      | Some id -> id
      | None ->
        let id = Ivec.length owner in
        Hashtbl.add tbl.(k) key id;
        Ivec.push owner k;
        Ivec.push local (Ivec.length members.(k));
        Ivec.push members.(k) id;
        Ivec.push frontier.(k) key;
        Ivec.push labs
          (Bitset.to_int
             (Bitset.union (Automaton.label left s)
                (Bitset.shift lp_size (Automaton.label right s'))));
        id
    in
    let initial =
      List.concat_map
        (fun q -> List.map (fun q' -> intern q q') right.Automaton.initial)
        left.Automaton.initial
    in
    let expand, stop_expand =
      match expand with
      | Some f -> (f, ignore)
      | None -> local_expand config left right
    in
    (* Edge buffers are flushed to scratch chunk files once they pass half
       the budget: construction keeps the same watermark discipline as the
       finished segments. *)
    let flush_edges () =
      match config.mem_budget with
      | None -> ()
      | Some budget ->
        let total =
          Array.fold_left (fun acc v -> acc + Ivec.capacity_bytes v) 0 edges
        in
        if total > budget / 2 then
          Array.iteri
            (fun k v ->
              if Ivec.length v > 0 then begin
                let path =
                  Segment.scratch_path mgr ~name:(Printf.sprintf "edges%d" k)
                in
                Segment.save ~path [ ("e", Segment.Ints (Ivec.to_array v)) ];
                Metrics.incr m_spills;
                Metrics.add m_spill_bytes (Ivec.capacity_bytes v);
                echunks.(k) <- (path, Ivec.length v) :: echunks.(k);
                Ivec.reset v
              end)
            edges
    in
    let round = ref 0 in
    Fun.protect ~finally:stop_expand (fun () ->
        let lo = ref 0 in
        while !lo < Ivec.length owner do
          let hi = Ivec.length owner in
          let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
          (* expand: each shard's frontier, in discovery order *)
          let level =
            Array.map
              (fun f ->
                let a = Ivec.to_array f in
                Ivec.clear f;
                a)
              frontier
          in
          let out = expand level in
          (* merge: serial, in global id order — the boundary exchange.  The
             numbering this hands out is exactly the single-queue BFS order,
             whatever the shard count, transport or scheduling. *)
          let ccur = Array.make shards 0 and kcur = Array.make shards 0 in
          for gid = !lo to hi - 1 do
            let k = Ivec.get owner gid in
            let counts, keys = out.(k) in
            let c = counts.(ccur.(k)) in
            ccur.(k) <- ccur.(k) + 1;
            Ivec.push deg.(k) c;
            let base = kcur.(k) in
            for j = base to base + c - 1 do
              let key = keys.(j) in
              Ivec.push edges.(k) (intern (key / nr) (key mod nr))
            done;
            kcur.(k) <- base + c
          done;
          flush_edges ();
          incr round;
          (match t0 with
          | Some start_us ->
            Trace.complete ~name:"ts.shard.round" ~start_us
              ~args:
                [ ("round", Trace.Int !round); ("frontier", Trace.Int (hi - !lo)) ]
              ()
          | None -> ());
          lo := hi
        done);
    Metrics.add m_build_rounds !round;
    let n = Ivec.length owner in
    let owner = Ivec.to_array owner in
    let local = Ivec.to_array local in
    let labels = Array.init n (fun i -> Bitset.of_int_unsafe (Ivec.get labs i)) in
    let sizes = Array.map Ivec.length members in
    (* finalize forward CSR segments and the global blocking set *)
    let blocking = Bitvec.create n in
    let transitions = ref 0 in
    let fwd_slots =
      Array.init shards (fun k ->
          let size = sizes.(k) in
          let row = Array.make (size + 1) 0 in
          for m = 0 to size - 1 do
            let d = Ivec.get deg.(k) m in
            row.(m + 1) <- row.(m) + d;
            if d = 0 then Bitvec.unsafe_set blocking (Ivec.get members.(k) m)
          done;
          transitions := !transitions + row.(size);
          let dst = Array.make (max row.(size) 1) 0 in
          let cursor = ref 0 in
          List.iter
            (fun (path, len) ->
              (match Segment.load ~path with
              | Ok payload -> Array.blit (ints payload "e") 0 dst !cursor len
              | Error m -> raise (Segment.Spill_error m));
              (try Sys.remove path with Sys_error _ -> ());
              cursor := !cursor + len)
            (List.rev echunks.(k));
          Array.blit edges.(k).Ivec.a 0 dst !cursor (Ivec.length edges.(k));
          Ivec.reset edges.(k);
          Ivec.reset deg.(k);
          echunks.(k) <- [];
          Segment.add mgr
            ~name:(Printf.sprintf "fwd%d" k)
            [
              ("members", Segment.Ints (Ivec.to_array members.(k)));
              ("row", Segment.Ints row);
              ("dst", Segment.Ints dst);
            ])
    in
    Array.iter Ivec.reset members;
    (* predecessor CSR: count per global state, then scatter per owning
       shard — chunked to scratch files under the budget like the edges *)
    let pcnt = Array.make (max n 1) 0 in
    Array.iter
      (fun slot ->
        let dst = ints (Segment.get mgr slot) "dst" in
        Array.iter (fun d -> pcnt.(d) <- pcnt.(d) + 1) dst)
      fwd_slots;
    let scatter = Array.init shards (fun _ -> Ivec.create ()) in
    let pchunks = Array.make shards [] in
    let flush_scatter () =
      match config.mem_budget with
      | None -> ()
      | Some budget ->
        let total =
          Array.fold_left (fun acc v -> acc + Ivec.capacity_bytes v) 0 scatter
        in
        if total > budget / 2 then
          Array.iteri
            (fun k v ->
              if Ivec.length v > 0 then begin
                let path =
                  Segment.scratch_path mgr ~name:(Printf.sprintf "scatter%d" k)
                in
                Segment.save ~path [ ("p", Segment.Ints (Ivec.to_array v)) ];
                Metrics.incr m_spills;
                Metrics.add m_spill_bytes (Ivec.capacity_bytes v);
                pchunks.(k) <- (path, Ivec.length v) :: pchunks.(k);
                Ivec.reset v
              end)
            scatter
    in
    Array.iter
      (fun slot ->
        let payload = Segment.get mgr slot in
        let mem = ints payload "members" and row = ints payload "row" in
        let dst = ints payload "dst" in
        let size = Array.length mem in
        for m = 0 to size - 1 do
          let src = mem.(m) in
          for e = row.(m) to row.(m + 1) - 1 do
            let d = dst.(e) in
            let kk = owner.(d) in
            Ivec.push scatter.(kk) local.(d);
            Ivec.push scatter.(kk) src
          done
        done;
        flush_scatter ())
      fwd_slots;
    let pred_slots =
      Array.init shards (fun k ->
          let mem = ints (Segment.get mgr fwd_slots.(k)) "members" in
          let size = Array.length mem in
          let prow = Array.make (size + 1) 0 in
          for m = 0 to size - 1 do
            prow.(m + 1) <- prow.(m) + pcnt.(mem.(m))
          done;
          let psrc = Array.make (max prow.(size) 1) 0 in
          let cursor = Array.copy prow in
          let fill pairs len =
            let i = ref 0 in
            while !i < len do
              let ld = pairs.(!i) and src = pairs.(!i + 1) in
              psrc.(cursor.(ld)) <- src;
              cursor.(ld) <- cursor.(ld) + 1;
              i := !i + 2
            done
          in
          List.iter
            (fun (path, len) ->
              (match Segment.load ~path with
              | Ok payload -> fill (ints payload "p") len
              | Error m -> raise (Segment.Spill_error m));
              try Sys.remove path with Sys_error _ -> ())
            (List.rev pchunks.(k));
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
