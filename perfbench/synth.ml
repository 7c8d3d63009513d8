(* synth: the paper's loop (closure, product, check, test) through
   Campaign.run_spec, on wide-alphabet locks (closure-bound) and on large
   random contexts against small random legacies (product- and
   fixpoint-bound), under both witness strategies. *)

open Harness
module Campaign = Mechaml_engine.Campaign
module Cache = Mechaml_engine.Cache
module Report = Mechaml_engine.Report
module Families = Mechaml_scenarios.Families
module Loop = Mechaml_core.Loop
module Ctl = Mechaml_logic.Ctl
module Witness = Mechaml_mc.Witness
module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Blackbox = Mechaml_legacy.Blackbox
module Observation = Mechaml_legacy.Observation

let strategies = [ Witness.Bfs_shortest; Witness.Dfs_first ]

(* A random closed context whose every state is reachable: a seeded
   permutation cycle taken on the empty reply, plus per state one offered
   legacy input (or none) and random jumps on a random selection of legacy
   outputs.  Its size, and so the product's, is set by [states] alone; the
   seed only rewires it. *)
let ring_context ~seed ~states ~legacy_inputs ~legacy_outputs =
  let rng = Random.State.make [| seed; states |] in
  let perm = Array.init states Fun.id in
  for i = states - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let b =
    Automaton.Builder.create
      ~name:(Printf.sprintf "ring%d_%d" states seed)
      ~inputs:legacy_outputs ~outputs:legacy_inputs ()
  in
  let name i = Printf.sprintf "c%d" perm.(i) in
  let n_in = List.length legacy_inputs in
  for i = 0 to states - 1 do
    let k = Random.State.int rng (n_in + 1) in
    let offered = if k = n_in then [] else [ List.nth legacy_inputs k ] in
    Automaton.Builder.add_trans b ~src:(name i) ~inputs:[] ~outputs:offered
      ~dst:(name ((i + 1) mod states)) ();
    List.iter
      (fun o ->
        if Random.State.bool rng then
          Automaton.Builder.add_trans b ~src:(name i) ~inputs:[ o ] ~outputs:offered
            ~dst:(name (Random.State.int rng states)) ())
      legacy_outputs
  done;
  Automaton.Builder.set_initial b [ name 0 ];
  Automaton.Builder.build b

(* Per round: ring contexts of five fixed sizes against seeded random
   legacies, each under both strategies, and wide-alphabet locks of five
   fixed lengths, alternating strategies, where the seed splits the spare
   signals between inputs and outputs (the closure's size depends only on
   their sum).  Fifteen jobs put the median and the 90th percentile of a
   run's job times inside one job's cluster, not on the gap between two. *)
let lock_lengths = [ 6; 8; 10; 12; 14 ]

let ring_sizes = [ 1500; 2000; 2500; 3000; 3500 ]

let specs ~seed =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let locks =
    List.mapi
      (fun k n ->
        let ki = 2 + Random.State.int rng 3 in
        let spares = (ki, 6 - ki) in
        let strategy = List.nth strategies (k mod 2) in
        Campaign.job
          ~id:
            (Printf.sprintf "lock%d/n%d-s%d%d/%s" k n (fst spares) (snd spares)
               (Campaign.strategy_string strategy))
          ~family:"lock"
          ~context:(Families.wide_lock_context ~n ~depth:(n - 1) ~spares)
          ~property:Families.lock_property ~strategy ~label_of:Families.lock_label_of
          (fun () -> Families.wide_lock_box ~n ~spares))
      lock_lengths
  in
  let inputs = [ "i0"; "i1"; "i2" ] and outputs = [ "o0"; "o1" ] in
  let rings =
    List.mapi
      (fun k states ->
        let s = (seed * 7919) + k in
        let legacy = Families.random_machine ~seed:s ~states:6 ~inputs ~outputs in
        let context =
          ring_context ~seed:s ~states ~legacy_inputs:inputs ~legacy_outputs:outputs
        in
        List.map
          (fun strategy ->
            Campaign.job
              ~id:(Printf.sprintf "ring%d/c%d/%s" k states (Campaign.strategy_string strategy))
              ~family:"ring" ~context ~property:Ctl.deadlock_free ~strategy ~max_iterations:1
              (fun () -> Blackbox.of_automaton ~port:"p" legacy))
          strategies)
      ring_sizes
  in
  locks @ List.concat rings

let failed (o : Campaign.outcome) =
  match o.verdict with Campaign.Failed _ | Campaign.Timed_out -> true | _ -> false

(* The structural facts of one job, for cross-checking traced and untraced
   executions of the same spec. *)
type signature = string * int * int * int * int

let signature_of_outcome (o : Campaign.outcome) : signature =
  ( Campaign.verdict_string o.verdict,
    o.iterations,
    o.states_learned,
    o.max_closure_states,
    o.max_product_states )

(* -- traced execution ------------------------------------------------------

   The same loop run_spec performs (same cache keys, same hooks), with spans
   around Loop.run and around the compute thunks of its hooks. *)

type counts = {
  mutable hits : int;
  mutable lookups : int;
  mutable queries : int;
  mutable iterations : int;
  mutable closure_states : int;
  mutable product_states : int;
  mutable delta_edges : int;
}

let traced_job ctx cache counts ~compose (spec : Campaign.spec) : signature =
  let sp = ctx.spans in
  let legacy_props =
    List.filter
      (fun p -> not (Universe.mem spec.context.Automaton.props p))
      (Ctl.props spec.property)
  in
  let check_hook = ref 0. in
  let on_closure ~model ~compute =
    Spans.with_span sp "cache.closure" (fun () ->
        let key = Cache.digest ("closure", spec.family, legacy_props, model) in
        let v, hit =
          Cache.closure cache ~key (fun () -> Spans.with_span sp "chaos.closure" compute)
        in
        counts.lookups <- counts.lookups + 1;
        if hit then counts.hits <- counts.hits + 1;
        v)
  in
  let on_check ~product ~formulas ~compute =
    let t0 = Unix.gettimeofday () in
    let v, hit =
      Spans.with_span sp "cache.check" (fun () ->
          let key =
            Cache.digest ("check", Campaign.strategy_string spec.strategy, formulas, product)
          in
          Cache.check cache ~key (fun () -> Spans.with_span sp "checker.check" compute))
    in
    check_hook := !check_hook +. (Unix.gettimeofday () -. t0);
    counts.lookups <- counts.lookups + 1;
    if hit then counts.hits <- counts.hits + 1;
    v
  in
  let box = spec.make_box () in
  let observe ~inputs =
    counts.queries <- counts.queries + 1;
    Spans.with_span sp "observation.test" (fun () -> Ok (Observation.observe ~box ~inputs))
  in
  let r =
    Spans.with_span sp "loop.run" (fun () ->
        Loop.run ~strategy:spec.strategy ~label_of:spec.label_of
          ?max_iterations:spec.max_iterations ~on_closure ~on_check ~observe
          ~incremental:true ~context:spec.context ~property:spec.property ~legacy:box ())
  in
  (* the loop's check phase is compose + the on_check hook *)
  compose := r.Loop.check_seconds -. !check_hook;
  let verdict =
    match r.Loop.verdict with
    | Loop.Proved -> Campaign.Proved
    | Loop.Real_violation { kind = Loop.Deadlock; confirmed_by_test; _ } ->
      Campaign.Real_deadlock { confirmed_by_test }
    | Loop.Real_violation { kind = Loop.Property; confirmed_by_test; _ } ->
      Campaign.Real_property { confirmed_by_test }
    | Loop.Exhausted _ -> Campaign.Exhausted
    | Loop.Degraded { reason; _ } -> Campaign.Degraded { reason }
  in
  let its = r.Loop.iterations in
  counts.iterations <- counts.iterations + List.length its;
  List.iter
    (fun (i : Loop.iteration) ->
      counts.closure_states <- counts.closure_states + i.closure_states;
      counts.product_states <- counts.product_states + i.product_states)
    its;
  counts.delta_edges <- counts.delta_edges + r.Loop.closure_delta_edges;
  ( Campaign.verdict_string verdict,
    List.length its,
    r.Loop.states_learned,
    List.fold_left (fun m (i : Loop.iteration) -> max m i.closure_states) 0 its,
    List.fold_left (fun m (i : Loop.iteration) -> max m i.product_states) 0 its )

let run ctx =
  (* set-up ends with one untimed round *)
  let setup () =
    let specs = specs ~seed:ctx.seed in
    let cache = Cache.create () in
    List.iter (fun spec -> ignore (Campaign.run_spec ~cache spec)) specs;
    specs
  in
  let specs, setup_samples = timed_setup ctx ~setup ~teardown:ignore in
  let js = jobs () in
  (* exact per-round facts: canonical report and per-job memo/reuse counters *)
  let canon = ref None and counters = ref None in
  let check_round outcomes =
    let c = Report.canonical outcomes in
    let k =
      List.map
        (fun (o : Campaign.outcome) ->
          (o.cache, o.closure_delta_edges, o.product_states_reused))
        outcomes
    in
    (match !canon with
    | None -> canon := Some c
    | Some c0 -> if c <> c0 then wrong "synth: canonical report differs between rounds");
    match !counters with
    | None -> counters := Some k
    | Some k0 -> if k <> k0 then wrong "synth: cache or reuse counters differ between rounds"
  in
  let by_id = Hashtbl.create 16 in
  let counts =
    {
      hits = 0;
      lookups = 0;
      queries = 0;
      iterations = 0;
      closure_states = 0;
      product_states = 0;
      delta_edges = 0;
    }
  in
  let compose_raw = Hashtbl.create 64 in
  let facts = Hashtbl.create 64 in
  let round ~traced =
    let cache = Cache.create () in
    if not traced then begin
      let outcomes =
        List.map
          (fun spec ->
            let out = ref None in
            ignore @@ time_job ctx js ~traced:false (fun () ->
                let o = Campaign.run_spec ~cache spec in
                out := Some o;
                not (failed o));
            Option.get !out)
          specs
      in
      check_round outcomes;
      List.iter
        (fun (o : Campaign.outcome) -> Hashtbl.replace by_id o.spec_id (signature_of_outcome o))
        outcomes
    end
    else
      List.iter
        (fun (spec : Campaign.spec) ->
          let compose = ref 0. in
          let id =
            time_job ctx js ~traced:true (fun () ->
                Spans.with_span ctx.spans "synth.job" (fun () ->
                    let sg = traced_job ctx cache counts ~compose spec in
                    Hashtbl.replace facts spec.Campaign.id sg;
                    true))
          in
          Hashtbl.replace compose_raw id !compose)
        specs
  in
  drive ctx js ~round;
  let peak_rss_mb = vm_hwm_mb "self" in
  (* oracle: memoized rounds agree with an unmemoized reference run *)
  let reference = Campaign.run ~memo:false specs in
  (match !canon with
  | Some c when c <> Report.canonical reference ->
    wrong "synth: memoized canonical report differs from the memo:false reference"
  | _ -> ());
  Hashtbl.iter
    (fun id sg ->
      match Hashtbl.find_opt by_id id with
      | Some sg0 when sg0 <> sg -> wrong "synth: traced job %s disagrees with run_spec" id
      | _ -> ())
    facts;
  let layers =
    if not ctx.trace then []
    else begin
      let tbl = layer_seconds ctx js in
      let n = float_of_int (max 1 (traced_count js)) in
      let pj name = per_job tbl js name in
      let compose =
        List.fold_left
          (fun acc (id, (s : Host.sample)) ->
            acc +. (Option.value ~default:0. (Hashtbl.find_opt compose_raw id) *. s.norm /. s.raw))
          0. js.traced
        /. n
      in
      [
        ("chaos.closure_s", pj "chaos.closure");
        ("compose.product_s", compose);
        ("checker.check_s", pj "checker.check");
        ("observation.test_s", pj "observation.test");
        ("cache.overhead_s", pj "cache.closure" +. pj "cache.check");
        ("loop.self_s", pj "loop.run" -. compose);
        ("cache.hit_frac", float_of_int counts.hits /. float_of_int (max 1 counts.lookups));
        ("observation.queries", float_of_int counts.queries /. n);
        ("loop.iterations", float_of_int counts.iterations /. n);
        ("chaos.closure_states", float_of_int counts.closure_states /. n);
        ("chaos.delta_edges", float_of_int counts.delta_edges /. n);
        ("compose.product_states", float_of_int counts.product_states /. n);
      ]
    end
  in
  { setup = setup_samples; js; peak_rss_mb; layers; root = "synth.job" }
