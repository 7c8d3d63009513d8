(* Shared measuring loop: timed set-up, timed jobs, metric output. *)

module Host = Perfbench_core.Host
module Stats = Perfbench_core.Stats
module Spans = Perfbench_core.Spans

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
  guard : Host.guard;
  spans : Spans.t;
}

(* An output oracle failed: the run is aborted, never reported. *)
exception Wrong of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

let log fmt = Printf.ksprintf (fun m -> print_endline m) fmt

(* p90 needs ten samples beyond it *)
let min_jobs = 100

(* traced runs only need enough jobs for stable per-job means *)
let min_traced_jobs = 30

let setup_repeats = 3

(* -- samples ---------------------------------------------------------------- *)

type jobs = {
  mutable untraced : Host.sample list;
  mutable traced : (int * Host.sample) list;  (** job id of the traced span set *)
  mutable attempted : int;
  mutable failed : int;
}

let jobs () = { untraced = []; traced = []; attempted = 0; failed = 0 }

let next_job = ref 0

(* Time one job, from a compacted heap so that no job pays for the garbage
   of the one before it, and return its id.  [f] returns [true] when the
   job completed; [false] (a failure, time-out or refusal) counts against
   [failed]. *)
let time_job ctx js ~traced f =
  let id = !next_job in
  incr next_job;
  Spans.set_job ctx.spans id;
  ctx.spans.Spans.enabled <- traced;
  Gc.compact ();
  let ok, s = Host.measure ctx.guard f in
  ctx.spans.Spans.enabled <- false;
  js.attempted <- js.attempted + 1;
  if not ok then js.failed <- js.failed + 1;
  if traced then js.traced <- (id, s) :: js.traced else js.untraced <- s :: js.untraced;
  id

(* Run rounds until [seconds] have passed and enough jobs are timed.  In a
   traced run, rounds alternate between untraced and traced so that both
   halves see the same host conditions. *)
let drive ctx js ~round =
  let t_end = Unix.gettimeofday () +. ctx.seconds in
  let need () =
    if ctx.trace then
      List.length js.untraced < min_traced_jobs || List.length js.traced < min_traced_jobs
    else List.length js.untraced < min_jobs
  in
  let r = ref 0 in
  while Unix.gettimeofday () < t_end || need () do
    round ~traced:(ctx.trace && !r mod 2 = 1);
    incr r
  done

(* Set up [setup_repeats] times, tearing down all but the last; each set-up
   is one host-normalized sample. *)
let timed_setup ctx ~setup ~teardown =
  let samples = ref [] and last = ref None in
  for _ = 1 to setup_repeats do
    Option.iter teardown !last;
    last := None;
    Gc.compact ();
    let st, s = Host.measure ctx.guard setup in
    last := Some st;
    samples := s :: !samples
  done;
  (Option.get !last, Array.of_list (List.rev !samples))

(* -- resources ---------------------------------------------------------------- *)

(* The program's executable, for the daemon and worker processes. *)
let mechaverify_bin () =
  match Sys.getenv_opt "MECHAVERIFY_BIN" with
  | Some b -> b
  | None -> failwith "MECHAVERIFY_BIN must name the mechaverify executable"

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some kb -> kb /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

(* -- per-layer attribution ------------------------------------------------- *)

(* Normalized self time per span name, summed over the traced jobs: every
   span of a job is scaled by its job's host factor. *)
let layer_seconds ctx js =
  let scale = Hashtbl.create 64 in
  List.iter (fun (id, (s : Host.sample)) -> Hashtbl.replace scale id (s.norm /. s.raw)) js.traced;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((sp : Spans.span), self) ->
      match Hashtbl.find_opt scale sp.job with
      | None -> ()
      | Some k ->
        let v = Option.value ~default:0. (Hashtbl.find_opt tbl sp.name) in
        Hashtbl.replace tbl sp.name (v +. (self *. k)))
    (Spans.self_times (Spans.spans ctx.spans));
  tbl

let traced_count js = List.length js.traced

(* Per traced job mean of a layer's normalized self time. *)
let per_job tbl js name =
  let n = traced_count js in
  if n = 0 then 0. else Option.value ~default:0. (Hashtbl.find_opt tbl name) /. float_of_int n

let write_trace ctx =
  (try Unix.mkdir ctx.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat ctx.out_dir (Printf.sprintf "trace-%s.json" ctx.workload) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Spans.to_chrome (Spans.spans ctx.spans)));
  path

(* -- result ----------------------------------------------------------------- *)

type result = {
  setup : Host.sample array;
  js : jobs;
  peak_rss_mb : float;
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  root : string;  (** span name of one whole job *)
}

let e2e_units =
  [
    ("setup_s", "s");
    ("job_p50_s", "s");
    ("job_p90_s", "s");
    ("jobs_per_s", "1/s");
    ("completed_frac", "frac");
    ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric, across all workloads: a workload reports 0 for
   the layers it never enters. *)
let layer_units =
  [
    ("chaos.closure_s", "s");
    ("chaos.closure_states", "count");
    ("chaos.delta_edges", "count");
    ("compose.product_s", "s");
    ("compose.product_states", "count");
    ("checker.check_s", "s");
    ("loop.iterations", "count");
    ("loop.self_s", "s");
    ("observation.test_s", "s");
    ("observation.queries", "count");
    ("cache.overhead_s", "s");
    ("cache.hit_frac", "frac");
    ("distshard.explore_s", "s");
    ("distshard.close_s", "s");
    ("distshard.rounds", "count");
    ("distshard.tx_mb", "MB");
    ("distshard.rx_mb", "MB");
    ("distshard.restarts", "count");
    ("distsat.check_s", "s");
    ("distshard.vs_shards1", "ratio");
    ("shard.deep_default_s", "s");
    ("shard.explore_s", "s");
    ("shard.close_s", "s");
    ("shard.build_rounds", "count");
    ("shard.states", "count");
    ("shardsat.check_s", "s");
    ("segment.spills", "count");
    ("segment.reloads", "count");
    ("shard.vs_shards1", "ratio");
    ("server.accepted_s", "s");
    ("server.first_verdict_s", "s");
    ("server.stream_s", "s");
    ("slo.admission_s", "s");
    ("slo.queue_s", "s");
    ("slo.stream_s", "s");
    ("host.ref_s", "s");
    ("host.bg_cpu_frac", "frac");
    ("trace.overhead_frac", "frac");
    ("trace.unattributed_frac", "frac");
  ]

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
       ms)

let norms l = Array.of_list (List.map (fun (s : Host.sample) -> s.Host.norm) l)

let raws l = Array.of_list (List.map (fun (s : Host.sample) -> s.Host.raw) l)

let report ctx r =
  let js = r.js in
  let untraced = norms js.untraced in
  let completed_frac =
    float_of_int (js.attempted - js.failed) /. float_of_int (max 1 js.attempted)
  in
  let setup_s = Stats.median (Array.map (fun (s : Host.sample) -> s.Host.norm) r.setup) in
  let ref_s = Stats.median (Array.of_list ctx.guard.Host.kernel_raw) in
  let bg = Host.bg_cpu_frac ctx.guard in
  log "workload %s seed %d: %d jobs timed (%d attempted, %d failed), %d traced" ctx.workload
    ctx.seed (Array.length untraced) js.attempted js.failed (traced_count js);
  log "  setup        %.4f s normalized, %.4f s raw (median of %d)" setup_s
    (Stats.median (Array.map (fun (s : Host.sample) -> s.Host.raw) r.setup))
    (Array.length r.setup);
  let kernels = Array.of_list ctx.guard.Host.kernel_raw in
  log "  host         ref kernel %.6f s raw (p10 %.6f, p90 %.6f; nominal %.6f s), background cpu %.4f"
    ref_s (Stats.percentile ~pct:10 kernels) (Stats.percentile ~pct:90 kernels) Host.nominal_s bg;
  if not (Host.valid ctx.guard) then
    wrong "program busy in the background during kernel windows (%.3f > %.2f)" bg Host.bg_limit;
  let metrics =
    if not ctx.trace then begin
      let raw = raws js.untraced in
      let p50 = Stats.percentile ~pct:50 untraced and p90 = Stats.percentile ~pct:90 untraced in
      log "  job p50      %.6f s normalized, %.6f s raw" p50 (Stats.percentile ~pct:50 raw);
      log "  job p90      %.6f s normalized, %.6f s raw" p90 (Stats.percentile ~pct:90 raw);
      log "  jobs/s       %.3f normalized, %.3f raw"
        (float_of_int (Array.length untraced) /. Stats.sum untraced)
        (float_of_int (Array.length raw) /. Stats.sum raw);
      log "  peak rss     %.1f MB" r.peak_rss_mb;
      let v = function
        | "setup_s" -> setup_s
        | "job_p50_s" -> p50
        | "job_p90_s" -> p90
        | "jobs_per_s" -> float_of_int (Array.length untraced) /. Stats.sum untraced
        | "completed_frac" -> completed_frac
        | "peak_rss_mb" -> r.peak_rss_mb
        | m -> invalid_arg m
      in
      List.map (fun (n, u) -> (n, u, v n)) e2e_units
    end
    else begin
      let traced = norms (List.map snd js.traced) in
      let overhead = (Stats.median traced /. Stats.median untraced) -. 1. in
      let tbl = layer_seconds ctx js in
      let root_total =
        List.fold_left (fun acc (_, (s : Host.sample)) -> acc +. s.Host.norm) 0. js.traced
      in
      let unattributed =
        if root_total > 0. then Option.value ~default:0. (Hashtbl.find_opt tbl r.root) /. root_total
        else 0.
      in
      let path = write_trace ctx in
      log "  trace        %s (%d spans)" path (List.length (Spans.spans ctx.spans));
      log "  traced jobs  p50 %.6f s vs untraced %.6f s: overhead %+.4f" (Stats.median traced)
        (Stats.median untraced) overhead;
      log "  unattributed %.4f of traced job time" unattributed;
      let given = r.layers in
      List.map
        (fun (n, u) ->
          let v =
            match n with
            | "host.ref_s" -> ref_s
            | "host.bg_cpu_frac" -> bg
            | "trace.overhead_frac" -> overhead
            | "trace.unattributed_frac" -> unattributed
            | _ -> Option.value ~default:0. (List.assoc_opt n given)
          in
          if List.mem_assoc n given then log "  %-24s %.6g %s" n v u;
          (n, u, v))
        layer_units
    end
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    js.attempted js.failed (json_metrics metrics)
