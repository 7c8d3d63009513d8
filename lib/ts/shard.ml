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
  distribution : distribution option;
}

let config ?(shards = 1) ?mem_budget ?spill_dir ?distribution () =
  if shards < 1 then invalid_arg "Shard.config: shards must be >= 1";
  { shards; mem_budget; spill_dir; distribution }

type view = {
  members : int array;
  row : int array;
  dst : int array;
  prow : int array;
  psrc : int array;
}

type t = {
  config : config;
  left : Automaton.t;
  right : Automaton.t;
  join : Compose.join Lazy.t;
  n : int;
  transitions : int;
  initial : int list;
  keys : int array; (* packed pair key per state *)
  owner : int array;
  local : int array;
  props : Universe.t;
  blocking : Bitvec.t;
  sizes : int array;
  mgr : Segment.t;
  fwd_slots : Segment.slot array; (* members / row / dst per shard *)
  pred_slots : Segment.slot array; (* prow / psrc per shard *)
}

let ints payload name =
  match List.assoc_opt name payload with
  | Some (Segment.Ints a) -> a
  | _ -> raise (Segment.Spill_error ("shard segment field missing: " ^ name))

type expand = int array array -> (int array * int array) array

(* The default transport: every level expanded inline in the calling
   domain, shard by shard. *)
let local_expand shards join right =
  let nr = Automaton.num_states right in
  let succ = Array.init shards (fun _ -> Ivec.create ()) in
  let out = Array.make shards ([||], [||]) in
  fun frontier ->
    for k = 0 to shards - 1 do
      if Array.length frontier.(k) = 0 then out.(k) <- ([||], [||])
      else begin
        let keys = succ.(k) in
        Ivec.clear keys;
        let counts =
          Array.map
            (fun key ->
              Compose.moves join (key / nr) (key mod nr) (fun _ _ l r ->
                  Ivec.push keys ((l * nr) + r)))
            frontier.(k)
        in
        out.(k) <- (counts, Ivec.to_array keys)
      end
    done;
    out

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
  let nr = Automaton.num_states right in
  (* The partition: a 64-bit mix of the packed pair key, so structured
     state spaces (pair keys are [l * nr + r]) spread evenly over any shard
     count.  Pure arithmetic — identical across runs, transports and
     budgets. *)
  let shard_of key = if shards = 1 then 0 else Itbl.mix key mod shards in
  (* the in-process transport forces the kernel up front; a fleet's
     coordinator only needs it to label a witness's edges *)
  let join = lazy (Compose.join left right) in
  let start_us = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let mgr =
    Segment.create ?budget:config.mem_budget ?dir:config.spill_dir
      ~on_spill:(fun bytes ->
        Metrics.incr m_spills;
        Metrics.add m_spill_bytes bytes)
      ~on_reload:(fun _ -> Metrics.incr m_reloads)
      ~name:"shard" ()
  in
  try
    (* One interning table over all shards.  A state is its packed key
       during the build — one word, at its global id in [keys]; owners,
       local indices and member lists are derived once the BFS is done. *)
    let tbl = Itbl.create 256 in
    let keys = Ivec.create () in
    let deg = Array.init shards (fun _ -> Ivec.create ()) in
    let edges = Array.init shards (fun _ -> Ivec.create ()) in
    let echunks = Array.make shards [] in
    let intern key =
      let fresh = Ivec.length keys in
      let id = Itbl.find_or_add tbl key fresh in
      if id = fresh then begin
        if fresh = max_states then
          invalid_arg "Shard.explore: the product exceeds 2^31 states";
        Ivec.push keys key
      end;
      id
    in
    let initial =
      List.concat_map
        (fun q -> List.map (fun q' -> intern ((q * nr) + q')) right.Automaton.initial)
        left.Automaton.initial
    in
    let expand, fanout =
      match expand with
      | Some f -> (f, "fleet")
      | None -> (local_expand shards (Lazy.force join) right, "inline")
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
    (* per level: each frontier state's shard (hashed once), then per-shard
       fill and read cursors *)
    let level_owner = ref [||] in
    let fill = Array.make shards 0 and ccur = Array.make shards 0 and kcur = Array.make shards 0 in
    let lo = ref 0 in
    while !lo < Ivec.length keys do
      let hi = Ivec.length keys in
      let width = hi - !lo in
      let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
      (* expand: each shard's frontier, cut from [keys.(lo) .. keys.(hi - 1)]
         in discovery order *)
      let level =
        if shards = 1 then [| Array.sub keys.Ivec.a !lo width |]
        else begin
          if Array.length !level_owner < width then level_owner := Array.make (2 * width) 0;
          let own = !level_owner in
          Array.fill fill 0 shards 0;
          for i = 0 to width - 1 do
            let k = shard_of (Ivec.get keys (!lo + i)) in
            own.(i) <- k;
            fill.(k) <- fill.(k) + 1
          done;
          let level = Array.map (fun c -> if c = 0 then [||] else Array.make c 0) fill in
          Array.fill fill 0 shards 0;
          for i = 0 to width - 1 do
            let k = own.(i) in
            level.(k).(fill.(k)) <- Ivec.get keys (!lo + i);
            fill.(k) <- fill.(k) + 1
          done;
          level
        end
      in
      let out = expand level in
      (* a shard's frontier is in discovery order, the merge's order: its
         degrees line up with its members as they come *)
      Array.iteri (fun k (counts, _) -> Ivec.append deg.(k) counts) out;
      (* merge: serial, in global id order — the boundary exchange.  The
         numbering this hands out is exactly the single-queue BFS order,
         whatever the shard count, transport or scheduling. *)
      Array.fill ccur 0 shards 0;
      Array.fill kcur 0 shards 0;
      for i = 0 to width - 1 do
        let k = if shards = 1 then 0 else !level_owner.(i) in
        let counts, succ = out.(k) in
        let c = counts.(ccur.(k)) in
        ccur.(k) <- ccur.(k) + 1;
        let base = kcur.(k) in
        for j = base to base + c - 1 do
          Ivec.push edges.(k) (intern succ.(j))
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
              ("frontier", Trace.Int width);
              ("fanout", Trace.Str fanout);
            ]
          ()
      | None -> ());
      lo := hi
    done;
    Metrics.add m_build_rounds !round;
    Itbl.reset tbl;
    let n = Ivec.length keys in
    let keys = Ivec.to_array keys in
    (* the derived maps, in one counting pass: a shard's members are its
       states in id order *)
    let sizes = Array.make shards 0 in
    let owner = Array.make n 0 and local = Array.make n 0 in
    for s = 0 to n - 1 do
      let k = shard_of keys.(s) in
      owner.(s) <- k;
      local.(s) <- sizes.(k);
      sizes.(k) <- sizes.(k) + 1
    done;
    let members = Array.map (fun size -> Array.make size 0) sizes in
    for s = 0 to n - 1 do
      members.(owner.(s)).(local.(s)) <- s
    done;
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
          let mem = members.(k) in
          members.(k) <- [||];
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
    Compose.record ~start_us ~left ~right ~states:n ~transitions:(fun () -> !transitions);
    {
      config;
      left;
      right;
      join;
      n;
      transitions = !transitions;
      initial;
      keys;
      owner;
      local;
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

let props t = t.props

let blocking t = t.blocking

(* A forward segment's fields by position, as [explore] stores them;
   any other shape is read by name. *)
let fwd_fields pf =
  match pf with
  | [ ("members", Segment.Ints members); ("row", Segment.Ints row); ("dst", Segment.Ints dst) ] ->
    (members, row, dst)
  | _ -> (ints pf "members", ints pf "row", ints pf "dst")

let view t k =
  let members, row, dst = fwd_fields (Segment.get t.mgr t.fwd_slots.(k)) in
  let pp = Segment.get t.mgr t.pred_slots.(k) in
  { members; row; dst; prow = ints pp "prow"; psrc = ints pp "psrc" }

let pair t s =
  let nr = Automaton.num_states t.right in
  (t.keys.(s) / nr, t.keys.(s) mod nr)

(* the packing of [Compose.parallel]'s labels *)
let label t s =
  let l, r = pair t s in
  Bitset.union (Automaton.label t.left l)
    (Bitset.shift (Universe.size t.left.Automaton.props) (Automaton.label t.right r))

let state_name t s =
  let l, r = pair t s in
  Automaton.state_name t.left l ^ "," ^ Automaton.state_name t.right r

(* shard by shard, so a batch reads each segment once; a shard no state
   asks for is never read *)
let succ t states =
  let out = Array.make (Array.length states) [||] in
  Array.iteri
    (fun k slot ->
      let fwd = ref None in
      Array.iteri
        (fun i s ->
          if t.owner.(s) = k then begin
            let _, row, dst =
              match !fwd with
              | Some f -> f
              | None ->
                let f = fwd_fields (Segment.get t.mgr slot) in
                fwd := Some f;
                f
            in
            let m = t.local.(s) in
            out.(i) <- Array.sub dst row.(m) (row.(m + 1) - row.(m))
          end)
        states)
    t.fwd_slots;
  out

(* The [k]-th joint move out of [s]: the kernel enumerates moves in the
   order the build stored the edges. *)
let io t s k =
  let l, r = pair t s in
  let i = ref 0 and found = ref None in
  ignore
    (Compose.moves (Lazy.force t.join) l r (fun a b _ _ ->
         if !i = k then found := Some (a, b);
         incr i));
  match !found with
  | Some io -> io
  | None -> invalid_arg (Printf.sprintf "Shard.io: state %d has no transition %d" s k)

let manager t = t.mgr

let spills t = Segment.spills t.mgr

let reloads t = Segment.reloads t.mgr

let close t = Segment.close t.mgr
