(* serve: a `mechaverify serve` daemon with two workers and a warm memo
   cache; one client submits bundled-matrix selections in a closed loop
   (each waits for its verdict stream to finish, as a CI caller does).  The
   selections leave out the supervised, bricked and flaky jobs, whose time
   is retry back-off rather than daemon work. *)

open Harness
module Campaign = Mechaml_engine.Campaign
module Report = Mechaml_engine.Report
module Client = Mechaml_serve.Client
module Wire = Mechaml_serve.Wire

(* Five selections, so that the median and the 90th percentile of a run's
   request times fall inside one selection's cluster. *)
let selections = [ "lock/n1"; "lock/n96"; "watchdog/"; "protocol/"; "railcab/correct/" ]

let tenant = "bench"

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

type daemon = {
  pid : int;
  endpoint : Client.endpoint;
  log : string;
}

let listening_port log =
  match In_channel.with_open_bin log In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
    List.find_map
      (fun line ->
        match String.rindex_opt line ':' with
        | Some i when String.starts_with ~prefix:"mechaserve listening on " line ->
          int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> None)
      (String.split_on_char '\n' s)

(* Start the daemon on an ephemeral port, its output in a log file under
   [dir], and wait until it answers /healthz. *)
let start ctx ~dir =
  let bin = mechaverify_bin () in
  let log = Filename.concat dir (Printf.sprintf "serve-%d.log" (Unix.getpid ())) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--port"; "0"; "--workers"; "2"; "--handlers"; "2"; "--log-level"; "error" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  Host.watch ctx.guard pid;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match listening_port log with
    | Some port -> (
      match Client.connect ~port () with
      | Ok endpoint -> { pid; endpoint; log }
      | Error _ -> retry ())
    | None -> retry ()
  and retry () =
    if Unix.gettimeofday () > deadline then failwith "serve: daemon did not come up";
    Unix.sleepf 0.002;
    wait ()
  in
  wait ()

let stop ctx d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  Host.unwatch ctx.guard d.pid;
  try Sys.remove d.log with Sys_error _ -> ()

let submit d ?on_event select =
  Client.submit d.endpoint ~tenant ~select ?on_event ~io_timeout_s:30. ()

(* Summed serve_stage_seconds histogram per stage for our tenant, scraped
   from /metrics. *)
let stage_sums d =
  match Client.get d.endpoint "/metrics" with
  | Ok (200, body) ->
    List.filter_map
      (fun line ->
        let prefix = "serve_stage_seconds_sum{" in
        if
          String.starts_with ~prefix line
          && contains line (Printf.sprintf "tenant=\"%s\"" tenant)
        then
          List.find_map
            (fun stage ->
              if contains line (Printf.sprintf "stage=\"%s\"" stage) then
                match String.rindex_opt line ' ' with
                | Some i ->
                  Option.map
                    (fun v -> (stage, v))
                    (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
                | None -> None
              else None)
            [ "admission"; "queue"; "stream" ]
        else None)
      (String.split_on_char '\n' body)
  | _ -> []

let run ctx =
  (try Unix.mkdir ctx.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let order =
    let rng = Random.State.make [| ctx.seed; 0x5e2e |] in
    let a = Array.of_list selections in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  (* set-up ends with a warm cache: every selection answered once *)
  let setup () =
    let d = start ctx ~dir:ctx.out_dir in
    List.iter
      (fun sel ->
        match submit d sel with
        | Ok _ -> ()
        | Error e -> failwith ("serve: warm-up submission failed: " ^ Client.error_string e))
      order;
    d
  in
  let d, setup = timed_setup ctx ~setup ~teardown:(stop ctx) in
  Fun.protect
    ~finally:(fun () -> stop ctx d)
    (fun () ->
      let js = jobs () in
      let canon = Hashtbl.create 8 in
      let hits = ref 0 and lookups = ref 0 in
      let accepted = ref 0. and first = ref 0. and stream = ref 0. in
      let stages = Hashtbl.create 4 in
      let round ~traced =
        let before = if traced then stage_sums d else [] in
        List.iter
          (fun sel ->
            ignore @@ time_job ctx js ~traced (fun () ->
                Spans.with_span ctx.spans "serve.job" (fun () ->
                    let t0 = Unix.gettimeofday () in
                    let t_acc = ref t0 and t_first = ref nan and t_done = ref t0 in
                    let on_event = function
                      | Wire.Accepted _ -> t_acc := Unix.gettimeofday ()
                      | Wire.Verdict _ -> if Float.is_nan !t_first then t_first := Unix.gettimeofday ()
                      | Wire.Done _ -> t_done := Unix.gettimeofday ()
                    in
                    match submit d ~on_event sel with
                    | Error _ -> false
                    | Ok outcomes ->
                      if traced then begin
                        let t_first = if Float.is_nan !t_first then !t_acc else !t_first in
                        Spans.add ctx.spans ~name:"server.accepted" ~start:t0 ~stop:!t_acc;
                        Spans.add ctx.spans ~name:"server.first_verdict" ~start:!t_acc ~stop:t_first;
                        Spans.add ctx.spans ~name:"server.stream" ~start:t_first ~stop:!t_done;
                        accepted := !accepted +. (!t_acc -. t0);
                        first := !first +. (t_first -. !t_acc);
                        stream := !stream +. (!t_done -. t_first);
                        List.iter
                          (fun (o : Campaign.outcome) ->
                            let c = o.cache in
                            let h = c.closure_hits + c.check_hits in
                            hits := !hits + h;
                            lookups := !lookups + h + c.closure_misses + c.check_misses)
                          outcomes
                      end;
                      let c = Report.canonical outcomes in
                      (match Hashtbl.find_opt canon sel with
                      | None -> Hashtbl.replace canon sel c
                      | Some c0 -> if c <> c0 then wrong "serve: %s answered differently" sel);
                      true)))
          order;
        if traced then
          List.iter
            (fun (stage, v) ->
              let v0 = Option.value ~default:0. (List.assoc_opt stage before) in
              let acc = Option.value ~default:0. (Hashtbl.find_opt stages stage) in
              Hashtbl.replace stages stage (acc +. v -. v0))
            (stage_sums d)
      in
      drive ctx js ~round;
      let peak_rss_mb = vm_hwm_mb (string_of_int d.pid) in
      (* oracle: every streamed answer equals a local campaign run *)
      Hashtbl.iter
        (fun sel c ->
          match Wire.resolve (Wire.submit ~select:sel ()) with
          | Error m -> wrong "serve: %s does not resolve locally: %s" sel m
          | Ok specs ->
            if Report.canonical (Campaign.run specs) <> c then
              wrong "serve: %s differs from a local Campaign.run" sel)
        canon;
      let layers =
        if not ctx.trace then []
        else begin
          let n = float_of_int (max 1 (traced_count js)) in
          (* wall-clock spans scaled like every other timing: by the job's
             host factor, averaged over the traced jobs *)
          let k =
            Stats.mean
              (Array.of_list
                 (List.map (fun (_, (s : Host.sample)) -> s.Host.norm /. s.Host.raw) js.traced))
          in
          let stage s = Option.value ~default:0. (Hashtbl.find_opt stages s) *. k /. n in
          [
            ("server.accepted_s", !accepted *. k /. n);
            ("server.first_verdict_s", !first *. k /. n);
            ("server.stream_s", !stream *. k /. n);
            ("slo.admission_s", stage "admission");
            ("slo.queue_s", stage "queue");
            ("slo.stream_s", stage "stream");
            ("cache.hit_frac", float_of_int !hits /. float_of_int (max 1 !lookups));
          ]
        end
      in
      { setup; js; peak_rss_mb; layers; root = "serve.job" })
