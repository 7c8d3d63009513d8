(* wide_sharded: one product check per job through the level-synchronized
   sharded tier, in process (Shard + Shardsat), on torus x cycle products
   with hundreds of states per BFS level, under a residency budget that
   forces segment spills.  Its traced run also measures the distributed
   tier (Distshard + Distsat on a two-process worker fleet) on coprime
   meshes, where every state sits on its own BFS level. *)

open Harness
module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Shardsat = Mechaml_mc.Shardsat
module Checker = Mechaml_mc.Checker
module Ctl = Mechaml_logic.Ctl
module Distshard = Mechaml_dist.Distshard
module Distsat = Mechaml_dist.Distsat
module Metrics = Mechaml_obs.Metrics

(* deep_dist: deadlock freedom plus "both operands can get home again", a
   backward fixpoint over the whole product nested in a forall-globally. *)
let phi_home =
  Ctl.And
    ( Ctl.deadlock_free,
      Ctl.Ag (None, Ctl.Ef (None, Ctl.And (Ctl.Prop "l.home", Ctl.Prop "r.home"))) )

(* wide_sharded: the sharded pipeline's own obligations (deadlock bit and
   its backward closure), so that the residency budget spills the build's
   segments rather than thrashing fixpoint sets. *)
let phi_deadlock = Ctl.And (Ctl.deadlock_free, Ctl.Ag (None, Ctl.Not Ctl.Deadlock))

(* [trans add] calls [add src inputs outputs dst] once per transition;
   [initial] is labelled [home]. *)
let build ~name ~home ~inputs ~outputs ~initial trans =
  let b = Automaton.Builder.create ~name ~inputs ~outputs () in
  ignore (Automaton.Builder.add_state b ~props:[ home ] initial);
  trans (fun src ins outs dst ->
      Automaton.Builder.add_trans b ~src ~inputs:ins ~outputs:outs ~dst ());
  Automaton.Builder.set_initial b [ initial ];
  Automaton.Builder.build b

(* A coprime mesh: the left operand cycles through [w] states, the right
   through [h]; every joint step advances both and "r" sends both home.
   With gcd(w, h) = 1 the product is the full w*h grid, one state per BFS
   level. *)
let mesh_pair ~w ~h =
  let st p i = Printf.sprintf "%s%d" p i in
  let left =
    build ~name:"meshL" ~home:"l.home" ~inputs:[] ~outputs:[ "q"; "r" ] ~initial:"l0"
      (fun add ->
        for i = 0 to w - 1 do
          add (st "l" i) [] [ "q" ] (st "l" ((i + 1) mod w));
          add (st "l" i) [] [ "r" ] "l0"
        done)
  in
  let right =
    build ~name:"meshR" ~home:"r.home" ~inputs:[ "q"; "r" ] ~outputs:[] ~initial:"r0"
      (fun add ->
        for j = 0 to h - 1 do
          add (st "r" j) [ "q" ] [] (st "r" ((j + 1) mod h));
          add (st "r" j) [ "r" ] [] "r0"
        done)
  in
  (left, right)

(* A four-dimensional torus of side n, one signal per axis, times an
   h-cycle that signal a advances by steps.(a).  With n and every step
   coprime to h, all n^4 * h states are reachable, and each BFS level holds
   hundreds of them: the wide-frontier shape, where a level-synchronized
   round has real work to share out. *)
let axes = [| "x"; "y"; "z"; "w" |]

let torus_pair ~n ~h ~steps =
  let d = Array.length axes in
  let name c = Printf.sprintf "t%d_%d_%d_%d" c.(0) c.(1) c.(2) c.(3) in
  let signals = Array.to_list axes in
  let left =
    build ~name:"torus" ~home:"l.home" ~inputs:[] ~outputs:signals ~initial:(name (Array.make d 0))
      (fun add ->
        let c = Array.make d 0 in
        for idx = 0 to (n * n * n * n) - 1 do
          let r = ref idx in
          for a = 0 to d - 1 do
            c.(a) <- !r mod n;
            r := !r / n
          done;
          let src = name c in
          Array.iteri
            (fun a s ->
              let next = Array.copy c in
              next.(a) <- (c.(a) + 1) mod n;
              add src [] [ s ] (name next))
            axes
        done)
  in
  let c k = Printf.sprintf "c%d" k in
  let right =
    build ~name:"cycle" ~home:"r.home" ~inputs:signals ~outputs:[] ~initial:(c 0) (fun add ->
        for k = 0 to h - 1 do
          Array.iteri (fun a s -> add (c k) [ s ] [] (c ((k + steps.(a)) mod h))) axes
        done)
  in
  (left, right)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The smallest h >= lo coprime with w. *)
let coprime_from w lo =
  let h = ref lo in
  while gcd w !h <> 1 do
    incr h
  done;
  !h

type pair = {
  label : string;
  left : Automaton.t;
  right : Automaton.t;
  states : int;  (** product size by construction *)
  phi : Ctl.t;
}

(* Mesh sizes on a fixed ladder; the seed picks the aspect ratio.  Five
   sizes put the median and the 90th percentile of a run's job times in
   the middle of one size's cluster, not on the gap between two. *)
let deep_pairs ~seed =
  let rng = Random.State.make [| seed; 0xdee9 |] in
  List.map
    (fun target ->
      let w = 12 + Random.State.int rng 12 in
      let h = coprime_from w (target / w) in
      let left, right = mesh_pair ~w ~h in
      { label = Printf.sprintf "mesh%dx%d" w h; left; right; states = w * h; phi = phi_home })
    [ 200; 250; 300; 350; 400 ]

(* Five torus sizes on a fixed ladder (see [deep_pairs]), with short
   cycles: every extra BFS level is one more crew barrier, and
   barrier-bound jobs drift with the host's wake-up latency.  The seed picks
   how far each signal advances the cycle. *)
let wide_pairs ~seed =
  let rng = Random.State.make [| seed; 0x71de |] in
  List.map
    (fun (n, h) ->
      let units = List.filter (fun s -> gcd s h = 1) (List.init (h - 1) (fun i -> i + 1)) in
      let steps =
        Array.map (fun _ -> List.nth units (Random.State.int rng (List.length units))) axes
      in
      let left, right = torus_pair ~n ~h ~steps in
      {
        label =
          Printf.sprintf "torus%d^4x%d/%s" n h
            (String.concat "" (Array.to_list (Array.map string_of_int steps)));
        left;
        right;
        states = n * n * n * n * h;
        phi = phi_deadlock;
      })
    [ (8, 5); (10, 3); (11, 3); (13, 2); (12, 5) ]

(* What every check of a pair must reproduce exactly. *)
type facts = {
  holds : bool;
  states : int;
  transitions : int;
}

let reference p =
  let prod = Compose.parallel p.left p.right in
  let a = prod.Compose.auto in
  {
    holds = Checker.holds a p.phi;
    states = Automaton.num_states a;
    transitions = Automaton.num_transitions a;
  }

(* Per-pair exact counts: every round must repeat them. *)
let same_counts tbl key counts what =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key counts
  | Some c0 -> if c0 <> counts then wrong "%s differ between rounds of %s" what key

let spill_root ctx =
  let dir = Filename.concat ctx.out_dir "spill" in
  (try Unix.mkdir ctx.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* -- in-process sharded check ------------------------------------------------ *)

let shard_check ?(spans = Spans.create ()) config p =
  let sp = Spans.with_span spans "shard.explore" (fun () -> Shard.explore ~config p.left p.right) in
  Fun.protect
    ~finally:(fun () -> Spans.with_span spans "shard.close" (fun () -> Shard.close sp))
    (fun () ->
      let holds =
        Spans.with_span spans "shardsat.check" (fun () ->
            Shardsat.holds_initially (Shardsat.create sp) p.phi)
      in
      ({ holds; states = Shard.num_states sp; transitions = Shard.num_transitions sp },
        (Shard.spills sp, Shard.reloads sp)))

(* Host-normalized median of [k] repetitions of [f]. *)
let median_norm ctx k f =
  Stats.median
    (Array.init k (fun _ ->
         Gc.compact ();
         (snd (Host.measure ctx.guard f)).Host.norm))

let build_rounds = Metrics.counter ~help:"Level-synchronized build rounds." "mc_shard_build_rounds_total"

(* Residency budget per product state: just below the live segment size,
   so every build spills and reloads a few segments.  Much lower budgets
   make the fixpoint phase thrash (hundreds of spills per check). *)
let budget_per_state = 56

(* -- distributed check ---------------------------------------------------- *)

type fleet = {
  pids : int list;
  addrs : string list;
}

(* Start [n] shard-worker processes on Unix sockets under [dir] (relative
   paths keep them under the socket-name limit) and wait until each
   answers. *)
let start_fleet ctx ~dir n =
  let bin = mechaverify_bin () in
  let me = string_of_int (Unix.getpid ()) in
  let fleet =
    List.init n (fun i ->
        let sock = Filename.concat dir (Printf.sprintf "w%d-%s.sock" i me) in
        (try Sys.remove sock with Sys_error _ -> ());
        let pid =
          Unix.create_process bin [| bin; "shard-worker"; sock; "--ppid"; me |] Unix.stdin
            Unix.stderr Unix.stderr
        in
        Host.watch ctx.guard pid;
        (pid, sock))
  in
  let deadline = Unix.gettimeofday () +. 20. in
  List.iter
    (fun (_, sock) ->
      let rec wait () =
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect s (Unix.ADDR_UNIX sock) with
        | () -> Unix.close s
        | exception Unix.Unix_error _ ->
          Unix.close s;
          if Unix.gettimeofday () > deadline then failwith ("shard worker did not come up: " ^ sock);
          Unix.sleepf 0.002;
          wait ()
      in
      wait ())
    fleet;
  { pids = List.map fst fleet; addrs = List.map snd fleet }

let stop_fleet ctx f =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Host.unwatch ctx.guard pid)
    f.pids;
  List.iter (fun a -> try Sys.remove a with Sys_error _ -> ()) f.addrs

let dist_check ?(spans = Spans.create ()) config p =
  let dp =
    Spans.with_span spans "distshard.explore" (fun () -> Distshard.explore ~config p.left p.right)
  in
  Fun.protect
    ~finally:(fun () -> Spans.with_span spans "distshard.close" (fun () -> Distshard.close dp))
    (fun () ->
      let holds =
        Spans.with_span spans "distsat.check" (fun () ->
            Distsat.holds_initially (Distsat.create dp) p.phi)
      in
      ({ holds; states = Distshard.num_states dp; transitions = Distshard.num_transitions dp },
        Distshard.restarts dp))

(* Rounds of the deep meshes in a traced wide_sharded run. *)
let deep_rounds = 3

(* The distributed tier, measured for the per-layer metrics only: set up a
   warm two-process fleet, check every mesh [deep_rounds] times with spans,
   and compare each verdict and wire-round count against the reference. *)
let deep_layers ctx =
  let dir = spill_root ctx in
  let pairs = deep_pairs ~seed:ctx.seed in
  let fleet = start_fleet ctx ~dir 2 in
  Fun.protect
    ~finally:(fun () -> stop_fleet ctx fleet)
    (fun () ->
      let config =
        Shard.config ~shards:8 ~spill_dir:dir
          ~distribution:(Shard.distribution ~deadline_s:60. (Shard.Connect fleet.addrs))
          ()
      in
      List.iter (fun p -> ignore (dist_check config p)) pairs;
      let js = jobs () in
      let seen = Hashtbl.create 8 and wire = Hashtbl.create 8 in
      let rounds = ref 0 and tx = ref 0 and rx = ref 0 and restarts = ref 0 in
      Metrics.set_enabled true;
      for _ = 1 to deep_rounds do
        List.iter
          (fun p ->
            let r0 = Distshard.total_rounds () and t0 = Distshard.total_bytes_tx ()
            and x0 = Distshard.total_bytes_rx () in
            ignore @@ time_job ctx js ~traced:true (fun () ->
                Spans.with_span ctx.spans "deep.job" (fun () ->
                    let f, rs = dist_check ~spans:ctx.spans config p in
                    same_counts seen p.label f "deep meshes: verdict or structure";
                    restarts := !restarts + rs;
                    true));
            let dr = Distshard.total_rounds () - r0 in
            same_counts wire p.label dr "deep meshes: wire rounds";
            rounds := !rounds + dr;
            tx := !tx + (Distshard.total_bytes_tx () - t0);
            rx := !rx + (Distshard.total_bytes_rx () - x0))
          pairs
      done;
      Metrics.set_enabled false;
      if !restarts > 0 then wrong "deep meshes: %d worker restarts on a healthy fleet" !restarts;
      List.iter
        (fun p ->
          if Hashtbl.find seen p.label <> reference p then
            wrong "deep meshes: %s disagrees with Compose.parallel + Checker" p.label)
        pairs;
      let tbl = layer_seconds ctx js in
      let n = float_of_int (max 1 (traced_count js)) in
      let pj = per_job tbl js in
      let mb b = float_of_int b /. n /. 1048576. in
      let p = List.nth pairs (List.length pairs / 2) in
      let t_dist = median_norm ctx 5 (fun () -> ignore (dist_check config p)) in
      let t_one = median_norm ctx 5 (fun () -> ignore (shard_check (Shard.config ~shards:1 ()) p)) in
      (* ROADMAP item 1's pathology in process: 8 shards on the default crew *)
      let t_default =
        median_norm ctx 5 (fun () -> ignore (shard_check (Shard.config ~shards:8 ~spill_dir:dir ()) p))
      in
      [
        ("distshard.explore_s", pj "distshard.explore");
        ("distsat.check_s", pj "distsat.check");
        ("distshard.close_s", pj "distshard.close");
        ("distshard.rounds", float_of_int !rounds /. n);
        ("distshard.tx_mb", mb !tx);
        ("distshard.rx_mb", mb !rx);
        ("distshard.restarts", float_of_int !restarts);
        ("distshard.vs_shards1", t_dist /. t_one);
        ("shard.deep_default_s", t_default);
      ])

(* -- the workload ------------------------------------------------------- *)

let run_wide ctx =
  let spill_dir = spill_root ctx in
  let config (p : pair) = Shard.config ~shards:8 ~mem_budget:(budget_per_state * p.states) ~spill_dir () in
  (* set-up ends with one untimed check of every pair *)
  let setup () =
    let pairs = wide_pairs ~seed:ctx.seed in
    List.iter (fun p -> ignore (shard_check (config p) p)) pairs;
    pairs
  in
  let pairs, setup = timed_setup ctx ~setup ~teardown:ignore in
  let js = jobs () in
  let seen = Hashtbl.create 8 and counts = Hashtbl.create 8 in
  let spills = ref 0 and reloads = ref 0 and rounds = ref 0 and states = ref 0 in
  let round ~traced =
    List.iter
      (fun p ->
        Metrics.set_enabled traced;
        let r0 = Metrics.counter_value build_rounds in
        ignore @@ time_job ctx js ~traced (fun () ->
            Spans.with_span ctx.spans "wide.job" (fun () ->
                let f, (sp, rl) = shard_check ~spans:ctx.spans (config p) p in
                same_counts seen p.label f "wide_sharded: verdict or structure";
                same_counts counts p.label (sp, rl) "wide_sharded: spill counts";
                if traced then begin
                  spills := !spills + sp;
                  reloads := !reloads + rl;
                  states := !states + f.states;
                  rounds := !rounds + (Metrics.counter_value build_rounds - r0)
                end;
                true));
        Metrics.set_enabled false)
      pairs
  in
  drive ctx js ~round;
  let peak_rss_mb = vm_hwm_mb "self" in
  List.iter
    (fun p ->
      if Hashtbl.find seen p.label <> reference p then
        wrong "wide_sharded: %s disagrees with Compose.parallel + Checker" p.label)
    pairs;
  let layers =
    if not ctx.trace then []
    else begin
      let tbl = layer_seconds ctx js in
      let n = float_of_int (max 1 (traced_count js)) in
      let pj = per_job tbl js in
      (* item 1 rule: the configuration against --shards 1 on the same pair *)
      let p = List.nth pairs (List.length pairs / 2) in
      let base = Shard.config ~shards:1 ~spill_dir () in
      let ratio =
        median_norm ctx 5 (fun () -> ignore (shard_check (config p) p))
        /. median_norm ctx 5 (fun () -> ignore (shard_check base p))
      in
      [
        ("shard.explore_s", pj "shard.explore");
        ("shardsat.check_s", pj "shardsat.check");
        ("shard.close_s", pj "shard.close");
        ("shard.build_rounds", float_of_int !rounds /. n);
        ("shard.states", float_of_int !states /. n);
        ("segment.spills", float_of_int !spills /. n);
        ("segment.reloads", float_of_int !reloads /. n);
        ("shard.vs_shards1", ratio);
      ]
      @ deep_layers ctx
    end
  in
  { setup; js; peak_rss_mb; layers; root = "wide.job" }
