(* The verification daemon: wire codec round trips, fair scheduling,
   admission control, the HTTP surface, and cache snapshot persistence
   across a daemon restart.  Servers bind an ephemeral loopback port per
   test and are always drained before the test returns. *)

module Server = Mechaml_serve.Server
module Client = Mechaml_serve.Client
module Scheduler = Mechaml_serve.Scheduler
module Store = Mechaml_serve.Store
module Quarantine = Mechaml_serve.Quarantine
module Chaosproxy = Mechaml_serve.Chaosproxy
module Wire = Mechaml_serve.Wire
module Http = Mechaml_wire.Http
module Json = Mechaml_obs.Json
module Context = Mechaml_obs.Context
module Flight = Mechaml_obs.Flight
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics
module Prng = Mechaml_util.Prng
module Campaign = Mechaml_engine.Campaign
module Report = Mechaml_engine.Report
module Cache = Mechaml_engine.Cache
open Helpers

(* Registration is idempotent, so this returns the daemon's own counter —
   the way tests read metric deltas without exporting every counter. *)
let counter_value name = Metrics.counter_value (Metrics.counter name ~help:"test handle")

let contains ~sub text =
  let n = String.length sub and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
  n = 0 || go 0

(* -- wire ------------------------------------------------------------------ *)

(* Outcomes with real payloads: the tiny matrix plus a supervised degraded
   job and a failed one, so every verdict arm of the codec is exercised. *)
let sample_outcomes =
  lazy
    (let tiny = Campaign.run (Campaign.bundled ~tiny:true ()) in
     let extra =
       Campaign.run
         [
           Campaign.job ~id:"wire/brick" ~family:"railcab"
             ~context:Mechaml_scenarios.Railcab.context
             ~property:Mechaml_scenarios.Railcab.constraint_
             ~label_of:Mechaml_scenarios.Railcab.label_of ~inject:"brick" ~seed:1
             ~policy:
               {
                 Mechaml_legacy.Supervisor.default_policy with
                 retries = 2;
                 breaker = 3;
               }
             (fun () -> Mechaml_scenarios.Railcab.box_correct);
           {
             (Campaign.job ~id:"wire/bad" ~family:"railcab"
                ~context:Mechaml_scenarios.Railcab.context
                ~property:Mechaml_scenarios.Railcab.constraint_
                ~label_of:Mechaml_scenarios.Railcab.label_of (fun () ->
                  Mechaml_scenarios.Railcab.box_correct))
             with
             Campaign.inject = Some "nope";
           };
         ]
     in
     tiny @ extra)

let wire_tests =
  [
    test "outcomes round-trip through the wire codec" (fun () ->
        List.iter
          (fun (o : Campaign.outcome) ->
            let json = Json.to_string (Wire.encode_outcome o) in
            match Result.bind (Json.parse json) Wire.decode_outcome with
            | Error e -> Alcotest.failf "%s: decode failed: %s" o.Campaign.spec_id e
            | Ok o' ->
              check_string ("canonical of " ^ o.Campaign.spec_id)
                (Report.canonical [ o ]) (Report.canonical [ o' ]);
              check_bool ("full record of " ^ o.Campaign.spec_id) true (o = o'))
          (Lazy.force sample_outcomes));
    test "events round-trip" (fun () ->
        let events =
          Wire.Accepted { jobs = 7 }
          :: Wire.Done { jobs = 7; cache_entries = 42; cache_hit_rate = 0.625 }
          :: List.mapi
               (fun i o -> Wire.Verdict { index = i; outcome = o })
               (Lazy.force sample_outcomes)
        in
        List.iter
          (fun ev ->
            let json = Json.to_string (Wire.encode_event ev) in
            match Result.bind (Json.parse json) Wire.decode_event with
            | Ok ev' -> check_bool json true (ev = ev')
            | Error e -> Alcotest.failf "decode failed on %s: %s" json e)
          events);
    test "submit round-trips and resolves against the bundled matrix" (fun () ->
        let s = Wire.submit ~tiny:true ~select:"watchdog" () in
        (match
           Result.bind (Json.parse (Json.to_string (Wire.encode_submit s)))
             Wire.decode_submit
         with
        | Ok s' -> check_bool "submit" true (s = s')
        | Error e -> Alcotest.fail e);
        match Wire.resolve s with
        | Ok [ spec ] -> check_bool "watchdog job" true (contains ~sub:"watchdog" spec.Campaign.id)
        | Ok specs -> Alcotest.failf "expected one job, got %d" (List.length specs)
        | Error e -> Alcotest.fail e);
    test "explicit ids resolve in matrix order; unknown ids are errors" (fun () ->
        let all = List.map (fun s -> s.Campaign.id) (Campaign.bundled ~tiny:true ()) in
        let reversed = List.rev all in
        (match Wire.resolve (Wire.submit ~tiny:true ~ids:reversed ()) with
        | Ok specs ->
          Alcotest.(check (list string))
            "matrix order restored" all
            (List.map (fun s -> s.Campaign.id) specs)
        | Error e -> Alcotest.fail e);
        match Wire.resolve (Wire.submit ~ids:[ "no/such/job" ] ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown id accepted");
    test "selection matching nothing is an error" (fun () ->
        match Wire.resolve (Wire.submit ~select:"zzz-no-match" ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "empty selection accepted");
  ]

(* -- scheduler ------------------------------------------------------------- *)

let scheduler_tests =
  [
    test "equal-weight tenants alternate under one worker" (fun () ->
        let sched = Scheduler.create ~workers:1 () in
        let order = ref [] in
        let omutex = Mutex.create () in
        let record name () =
          Mutex.lock omutex;
          order := name :: !order;
          Mutex.unlock omutex
        in
        let gate = Mutex.create () in
        Mutex.lock gate;
        (* park the single worker so both tenants queue up behind it *)
        let blocker =
          Scheduler.job (fun () ->
              Mutex.lock gate;
              Mutex.unlock gate)
        in
        (match Scheduler.submit sched ~tenant:"a" [ blocker ] with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "blocker rejected");
        let batch name = List.init 3 (fun _ -> Scheduler.job (record name)) in
        (match
           ( Scheduler.submit sched ~tenant:"a" (batch "a"),
             Scheduler.submit sched ~tenant:"b" (batch "b") )
         with
        | Ok (), Ok () -> ()
        | _ -> Alcotest.fail "batch rejected");
        Mutex.unlock gate;
        Scheduler.drain sched;
        let order = List.rev !order in
        check_int "all jobs ran" 6 (List.length order);
        let rec alternates = function
          | x :: y :: rest ->
            check_bool "no tenant runs twice in a row while both have work" true
              (x <> y);
            alternates (y :: rest)
          | _ -> ()
        in
        (* the tail may repeat once one tenant is drained; the first four
           picks have both tenants queued, so they must alternate *)
        alternates (List.filteri (fun i _ -> i < 4) order));
    test "in-flight cap keeps one tenant from monopolizing the pool" (fun () ->
        let sched = Scheduler.create ~workers:4 ~inflight_cap:1 () in
        let running = Atomic.make 0 in
        let peak = Atomic.make 0 in
        let job () =
          let now = Atomic.fetch_and_add running 1 + 1 in
          let rec bump () =
            let p = Atomic.get peak in
            if now > p && not (Atomic.compare_and_set peak p now) then bump ()
          in
          bump ();
          Unix.sleepf 0.02;
          ignore (Atomic.fetch_and_add running (-1))
        in
        (match
           Scheduler.submit sched ~tenant:"greedy"
             (List.init 6 (fun _ -> Scheduler.job job))
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "rejected");
        Scheduler.drain sched;
        check_int "never more than the cap in flight" 1 (Atomic.get peak));
    test "queue bound rejects the whole batch with a retry hint" (fun () ->
        let sched = Scheduler.create ~workers:1 ~queue_bound:2 () in
        let gate = Mutex.create () in
        Mutex.lock gate;
        ignore
          (Scheduler.submit sched ~tenant:"a"
             [
               Scheduler.job (fun () ->
                   Mutex.lock gate;
                   Mutex.unlock gate);
             ]);
        (match
           Scheduler.submit sched ~tenant:"a" [ Scheduler.job (fun () -> ()) ]
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "within bound rejected");
        (match
           Scheduler.submit sched ~tenant:"a"
             (List.init 2 (fun _ -> Scheduler.job (fun () -> ())))
         with
        | Error (Scheduler.Busy { retry_after_s }) ->
          check_bool "positive retry hint" true (retry_after_s > 0.)
        | Ok () -> Alcotest.fail "overflow accepted"
        | Error Scheduler.Draining -> Alcotest.fail "not draining yet");
        Mutex.unlock gate;
        Scheduler.drain sched;
        match Scheduler.submit sched ~tenant:"a" [ Scheduler.job (fun () -> ()) ] with
        | Error Scheduler.Draining -> ()
        | _ -> Alcotest.fail "drained scheduler accepted work");
    test "a raising job is contained; drain is idempotent" (fun () ->
        let sched = Scheduler.create ~workers:2 () in
        let ran = Atomic.make 0 in
        ignore
          (Scheduler.submit sched ~tenant:"x"
             [
               Scheduler.job (fun () -> failwith "boom");
               Scheduler.job (fun () -> ignore (Atomic.fetch_and_add ran 1));
             ]);
        Scheduler.drain sched;
        Scheduler.drain sched;
        check_int "healthy job still ran" 1 (Atomic.get ran));
  ]

(* -- hostile bytes against the HTTP layer ----------------------------------- *)

(* Feed [bytes] into [Http.read_request] over a socketpair (a domain plays
   the peer, so large payloads cannot deadlock on the kernel buffer) and
   classify what the parser did.  The contract under attack: any byte
   sequence ends in a parsed request, [Bad], [Closed] or [Timeout] — never a
   hang and never another exception. *)
let hostile_request ?(read_timeout_s = 2.) ?(close_writer = true) bytes =
  let wr, rd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let quiet_close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      quiet_close wr;
      quiet_close rd)
    (fun () ->
      let peer =
        Domain.spawn (fun () ->
            (try
               let b = Bytes.of_string bytes in
               let n = Bytes.length b in
               let sent = ref 0 in
               while !sent < n do
                 match Unix.write wr b !sent (n - !sent) with
                 | k -> sent := !sent + k
                 | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               done
             with Unix.Unix_error _ -> ());
            if close_writer then
              try Unix.shutdown wr Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      in
      let c = Http.conn ~read_timeout_s rd in
      let verdict =
        match Http.read_request c with
        | _ -> `Parsed
        | exception Http.Bad _ -> `Bad
        | exception Http.Closed -> `Closed
        | exception Http.Timeout _ -> `Timeout
      in
      Domain.join peer;
      verdict)

let garbage_of_seed seed =
  let len = Prng.mix_int ~seed 0 4096 in
  String.init len (fun i -> Char.chr (Prng.mix_int ~seed (i + 1) 256))

let hostile_seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let hostile_tests =
  [
    qcheck ~count:60 "arbitrary bytes end in Parsed/Bad/Closed, never a hang"
      hostile_seed_arb
      (fun seed -> hostile_request (garbage_of_seed seed) <> `Timeout);
    test "a truncated body is Closed, not a hang" (fun () ->
        check_bool "closed" true
          (hostile_request "POST /v1/campaign HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort"
          = `Closed));
    test "an oversized header section is rejected as Bad" (fun () ->
        let headers =
          String.concat ""
            (List.init 40 (fun i -> Printf.sprintf "x-pad%d: %s\r\n" i (String.make 500 'a')))
        in
        check_bool "bad" true
          (hostile_request ("GET /healthz HTTP/1.1\r\n" ^ headers ^ "\r\n") = `Bad));
    test "a body over the limit is rejected before it is read" (fun () ->
        check_bool "bad" true
          (hostile_request "POST /v1/campaign HTTP/1.1\r\ncontent-length: 10000000\r\n\r\n"
          = `Bad));
    test "a slow-loris peer is dropped by the read deadline" (fun () ->
        let t0 = Unix.gettimeofday () in
        let verdict =
          hostile_request ~read_timeout_s:0.2 ~close_writer:false "GET /heal"
        in
        let dt = Unix.gettimeofday () -. t0 in
        check_bool "timeout" true (verdict = `Timeout);
        check_bool "within one deadline, not a hang" true (dt < 2.));
  ]

(* -- watchdog --------------------------------------------------------------- *)

let watchdog_tests =
  [
    test "the watchdog abandons an overdue job exactly once" (fun () ->
        Metrics.set_enabled true;
        let kills0 = counter_value "serve_deadline_kills_total" in
        let sched = Scheduler.create ~workers:1 () in
        let fired = Atomic.make 0 in
        let j =
          Scheduler.job ~deadline_s:0.1
            ~on_deadline:(fun () -> Atomic.incr fired)
            (fun () -> Unix.sleepf 0.4)
        in
        (match Scheduler.submit sched ~tenant:"slow" [ j ] with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "rejected");
        Scheduler.drain sched;
        check_int "on_deadline fired exactly once" 1 (Atomic.get fired);
        check_int "kill counted" 1 (counter_value "serve_deadline_kills_total" - kills0));
    test "a job inside its deadline is never abandoned" (fun () ->
        Metrics.set_enabled true;
        let kills0 = counter_value "serve_deadline_kills_total" in
        let sched = Scheduler.create ~workers:1 () in
        let fired = Atomic.make 0 in
        let j =
          Scheduler.job ~deadline_s:5.
            ~on_deadline:(fun () -> Atomic.incr fired)
            (fun () -> Unix.sleepf 0.01)
        in
        (match Scheduler.submit sched ~tenant:"fast" [ j ] with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "rejected");
        Scheduler.drain sched;
        check_int "no abandonment" 0 (Atomic.get fired);
        check_int "no kill counted" 0
          (counter_value "serve_deadline_kills_total" - kills0));
    test "a raising deadline callback is contained and counted" (fun () ->
        Metrics.set_enabled true;
        let errs0 = counter_value "serve_discard_errors_total" in
        let sched = Scheduler.create ~workers:1 () in
        let j =
          Scheduler.job ~deadline_s:0.05
            ~on_deadline:(fun () -> failwith "callback boom")
            (fun () -> Unix.sleepf 0.3)
        in
        (match Scheduler.submit sched ~tenant:"boom" [ j ] with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "rejected");
        Scheduler.drain sched;
        check_int "callback failure counted" 1
          (counter_value "serve_discard_errors_total" - errs0));
  ]

(* -- quarantine ------------------------------------------------------------- *)

let quarantine_tests =
  [
    test "strikes accumulate, the TTL releases and forgives" (fun () ->
        let q = Quarantine.create ~strikes:2 ~ttl_s:0.2 () in
        check_bool "one strike is not enough" false
          (Quarantine.strike q ~key:"d1" ~reason:"t1");
        check_bool "not quarantined yet" true (Quarantine.check q ~key:"d1" = None);
        check_bool "second strike trips" true
          (Quarantine.strike q ~key:"d1" ~reason:"t2");
        (match Quarantine.check q ~key:"d1" with
        | Some _ -> ()
        | None -> Alcotest.fail "quarantine not active");
        check_int "listed" 1 (List.length (Quarantine.active q));
        Unix.sleepf 0.3;
        check_bool "released after the TTL" true (Quarantine.check q ~key:"d1" = None);
        check_bool "strikes forgiven wholesale" false
          (Quarantine.strike q ~key:"d1" ~reason:"t3"));
    test "independent keys do not share strikes" (fun () ->
        let q = Quarantine.create ~strikes:1 ~ttl_s:60. () in
        ignore (Quarantine.strike q ~key:"a" ~reason:"r");
        check_bool "a quarantined" true (Quarantine.check q ~key:"a" <> None);
        check_bool "b untouched" true (Quarantine.check q ~key:"b" = None));
  ]

(* -- store: quarantine stand-ins and deadline clamping ---------------------- *)

let spec_digest (s : Campaign.spec) =
  Cache.digest (s.Campaign.id, s.Campaign.family, s.Campaign.inject, s.Campaign.seed)

let stream_all store e =
  let rec go pos acc =
    match Store.await store e ~pos with
    | Store.Next (i, o) -> go (pos + 1) ((i, o) :: acc)
    | Store.Finished -> List.rev acc
  in
  go 0 []

let store_tests =
  [
    test "a quarantined spec answers an immediate Failed stand-in" (fun () ->
        Metrics.set_enabled true;
        let sched = Scheduler.create ~workers:2 () in
        let cache = Cache.create () in
        let store = Store.create ~quarantine_strikes:1 ~sched ~cache () in
        let specs =
          match Wire.resolve (Wire.submit ~tiny:true ()) with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let victim = List.hd specs in
        ignore
          (Quarantine.strike (Store.quarantine store) ~key:(spec_digest victim)
             ~reason:"test poison");
        (match Store.submit store ~tenant:"t" (Wire.submit ~tiny:true ~key:"q-1" ()) with
        | Error _ -> Alcotest.fail "submission rejected"
        | Ok (e, _) ->
          let all = stream_all store e in
          check_int "every verdict present" (List.length specs) (List.length all);
          let _, vo =
            List.find (fun (_, o) -> o.Campaign.spec_id = victim.Campaign.id) all
          in
          (match vo.Campaign.verdict with
          | Campaign.Failed msg ->
            check_bool "stand-in names the quarantine" true
              (contains ~sub:"quarantined" msg)
          | _ -> Alcotest.fail "quarantined spec was run");
          (* the other jobs ran normally despite the poisoned sibling *)
          List.iter
            (fun (_, o) ->
              if o.Campaign.spec_id <> victim.Campaign.id then
                match o.Campaign.verdict with
                | Campaign.Failed _ -> Alcotest.fail "healthy sibling failed"
                | _ -> ())
            all);
        Scheduler.drain sched);
    test "a tiny deadline times out every job and strikes the registry" (fun () ->
        Metrics.set_enabled true;
        let sched = Scheduler.create ~workers:2 () in
        let cache = Cache.create () in
        let store = Store.create ~quarantine_strikes:1 ~sched ~cache () in
        let sub = { (Wire.submit ~tiny:true ~key:"dl-1" ()) with Wire.deadline_s = Some 1e-6 } in
        (match Store.submit store ~tenant:"t" sub with
        | Error _ -> Alcotest.fail "submission rejected"
        | Ok (e, _) ->
          let all = stream_all store e in
          check_int "every verdict present" 4 (List.length all);
          List.iter
            (fun (_, o) ->
              match o.Campaign.verdict with
              | Campaign.Timed_out | Campaign.Failed _ -> ()
              | _ ->
                Alcotest.failf "%s beat a microsecond budget" o.Campaign.spec_id)
            all;
          check_bool "poison recorded" true
            (Quarantine.active (Store.quarantine store) <> []));
        Scheduler.drain sched);
  ]

(* -- HTTP server ----------------------------------------------------------- *)

let with_server ?(cfg = Server.default) f =
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let raw_request_full ~port ~meth ~path ?headers body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c = Http.conn fd in
  Fun.protect
    ~finally:(fun () -> Http.close c)
    (fun () ->
      Http.write_request c ~meth ~path ?headers body;
      let head = Http.read_response_head c in
      (head, Http.read_body c head))

let raw_request ~port ~meth ~path ?headers body =
  let head, body = raw_request_full ~port ~meth ~path ?headers body in
  (head.Http.status, body)

let server_tests =
  [
    test "healthz answers and unknown routes are 404/405" (fun () ->
        with_server (fun srv ->
            let port = Server.port srv in
            (match Client.connect ~port () with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Client.error_string e));
            let status path = fst (raw_request ~port ~meth:"GET" ~path "") in
            check_int "404 for unknown path" 404 (status "/nope");
            check_int "405 for wrong verb" 405
              (fst (raw_request ~port ~meth:"POST" ~path:"/healthz" ""))));
    test "malformed submissions are 400, never a hang" (fun () ->
        with_server (fun srv ->
            let port = Server.port srv in
            let post body =
              fst (raw_request ~port ~meth:"POST" ~path:"/v1/campaign" body)
            in
            check_int "bad JSON" 400 (post "{not json");
            check_int "mistyped field" 400 (post {|{"matrix": 5}|});
            check_int "unknown matrix" 400 (post {|{"matrix": "weird"}|});
            check_int "mistyped ids" 400 (post {|{"ids": "railcab"}|});
            check_int "unknown job id" 400 (post {|{"ids": ["no/such/job"]}|})));
    test "a daemon-served campaign equals the local run" (fun () ->
        with_server (fun srv ->
            let port = Server.port srv in
            let ep = { Client.host = "127.0.0.1"; port } in
            match Client.submit ep ~tiny:true () with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok outcomes ->
              check_string "canonical daemon = local"
                (Report.canonical (Campaign.run (Campaign.bundled ~tiny:true ())))
                (Report.canonical outcomes)));
    test "two concurrent clients both get full, identical verdict sets" (fun () ->
        with_server (fun srv ->
            let port = Server.port srv in
            let ep = { Client.host = "127.0.0.1"; port } in
            let submit tenant () = Client.submit ep ~tenant ~tiny:true () in
            let d1 = Domain.spawn (submit "alice") in
            let d2 = Domain.spawn (submit "bob") in
            match (Domain.join d1, Domain.join d2) with
            | Ok a, Ok b ->
              check_string "identical canonical reports" (Report.canonical a)
                (Report.canonical b);
              check_int "alice got every verdict" 4 (List.length a)
            | Error e, _ | _, Error e -> Alcotest.fail (Client.error_string e)));
    test "a full queue answers 429 with Retry-After" (fun () ->
        let cfg = { Server.default with Server.queue_bound = 0 } in
        with_server ~cfg (fun srv ->
            let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
            match Client.submit ep ~tiny:true () with
            | Error (Client.Busy retry) ->
              check_bool "positive retry hint" true (retry > 0.)
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok _ -> Alcotest.fail "over-bound submission accepted"));
    test "metrics scrape exposes the server series" (fun () ->
        with_server (fun srv ->
            let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
            (match Client.submit ep ~tiny:true ~select:"watchdog" () with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Client.error_string e));
            match Client.metrics ep with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok body ->
              List.iter
                (fun series ->
                  check_bool ("scrape has " ^ series) true (contains ~sub:series body))
                [
                  "serve_requests_total";
                  "serve_connections_total";
                  "serve_jobs_total";
                  "serve_queue_depth";
                  "serve_cache_hit_rate";
                  "serve_tenant_busy_seconds";
                ]));
    test "stats endpoint reports tenants and cache as JSON" (fun () ->
        with_server (fun srv ->
            let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
            (match Client.submit ep ~tenant:"carol" ~tiny:true ~select:"watchdog" () with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Client.error_string e));
            match Client.get ep "/v1/stats" with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok (status, body) ->
              check_int "200" 200 status;
              (match Json.parse body with
              | Error e -> Alcotest.failf "stats not JSON: %s" e
              | Ok v ->
                check_bool "schema" true
                  (Json.member "schema" v = Some (Json.Str "mechaml-serve-stats/1"));
                check_bool "tenant listed" true (contains ~sub:"carol" body))));
    test "every response echoes X-Request-Id, supplied or minted" (fun () ->
        with_server (fun srv ->
            let port = Server.port srv in
            let head, _ =
              raw_request_full ~port ~meth:"GET" ~path:"/healthz"
                ~headers:[ ("x-request-id", "my-rid-1") ]
                ""
            in
            check_bool "supplied id echoed" true
              (Http.resp_header head "x-request-id" = Some "my-rid-1");
            let head, _ = raw_request_full ~port ~meth:"GET" ~path:"/nope" "" in
            check_int "404 still traced" 404 head.Http.status;
            (match Http.resp_header head "x-request-id" with
            | Some rid -> check_bool "minted id on 404" true (String.length rid > 0)
            | None -> Alcotest.fail "404 without a request id");
            (* an id outside [A-Za-z0-9._-]{1,128} never enters WAL lines or
               logs: the daemon mints a clean replacement *)
            let head, _ =
              raw_request_full ~port ~meth:"GET" ~path:"/healthz"
                ~headers:[ ("x-request-id", "bad id!") ]
                ""
            in
            match Http.resp_header head "x-request-id" with
            | Some rid -> check_bool "invalid id replaced" true (rid <> "bad id!")
            | None -> Alcotest.fail "no id on the replacement path"));
    test "even an unparseable request gets a request id on its 400" (fun () ->
        with_server (fun srv ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
            let c = Http.conn fd in
            Fun.protect
              ~finally:(fun () -> Http.close c)
              (fun () ->
                let junk = Bytes.of_string "BROKEN\r\n\r\n" in
                ignore (Unix.write fd junk 0 (Bytes.length junk));
                let head = Http.read_response_head c in
                check_int "400" 400 head.Http.status;
                match Http.resp_header head "x-request-id" with
                | Some rid -> check_bool "provisional id" true (String.length rid > 0)
                | None -> Alcotest.fail "parse-failure reply without an id")));
    test "/v1/slo and /v1/debug/flight expose the request's footprints" (fun () ->
        with_server (fun srv ->
            let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
            (match Client.submit ep ~tenant:"dora" ~tiny:true ~select:"watchdog" () with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Client.error_string e));
            (match Client.get ep "/v1/slo" with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok (status, body) ->
              check_int "slo 200" 200 status;
              (match Json.parse (String.trim body) with
              | Error e -> Alcotest.failf "slo not JSON: %s" e
              | Ok v ->
                check_bool "slo schema" true
                  (Json.member "schema" v = Some (Json.Str "mechaml-serve-slo/1"));
                check_bool "admission cell for the tenant" true
                  (contains ~sub:"dora" body && contains ~sub:"admission" body)));
            match Client.get ep "/v1/debug/flight" with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok (status, body) ->
              check_int "flight 200" 200 status;
              check_bool "admission event recorded" true
                (contains ~sub:{|"kind":"admission"|} body);
              check_bool "verdict event recorded" true
                (contains ~sub:{|"kind":"verdict"|} body);
              String.split_on_char '\n' body
              |> List.filter (fun l -> String.trim l <> "")
              |> List.iter (fun l ->
                     match Json.parse l with
                     | Ok _ -> ()
                     | Error e -> Alcotest.failf "unparseable flight line %s: %s" l e)));
  ]

(* -- snapshot persistence across a restart --------------------------------- *)

let persistence_tests =
  [
    test "a restarted daemon answers from the restored cache" (fun () ->
        let snapshot = Filename.temp_file "mechaserve" ".snap" in
        Sys.remove snapshot;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists snapshot then Sys.remove snapshot)
          (fun () ->
            let cfg = { Server.default with Server.snapshot = Some snapshot } in
            (* first life: compute, snapshot on stop *)
            with_server ~cfg (fun srv ->
                let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
                match Client.submit ep ~tiny:true () with
                | Ok _ -> ()
                | Error e -> Alcotest.fail (Client.error_string e));
            check_bool "snapshot written" true (Sys.file_exists snapshot);
            (* second life: the cache comes back warm and the same matrix
               answers from memory — the hit counters prove it *)
            with_server ~cfg (fun srv ->
                let restored = (Cache.stats (Server.cache srv)).Cache.entries in
                check_bool "entries restored at startup" true (restored > 0);
                let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
                match Client.submit ep ~tiny:true () with
                | Error e -> Alcotest.fail (Client.error_string e)
                | Ok outcomes ->
                  check_string "verdicts unchanged by the restore"
                    (Report.canonical (Campaign.run (Campaign.bundled ~tiny:true ())))
                    (Report.canonical outcomes);
                  let s = Cache.stats (Server.cache srv) in
                  check_bool "warm hits after restart" true (Cache.hits s > 0))))
  ]

(* -- idempotent submissions and job status ---------------------------------- *)

let idempotency_tests =
  [
    test "resubmitting an idempotency key attaches instead of re-running" (fun () ->
        with_server (fun srv ->
            let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
            match Client.submit ep ~key:"idem-1" ~tiny:true () with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok a -> (
              let after_first = counter_value "serve_jobs_total" in
              match Client.submit ep ~key:"idem-1" ~tiny:true () with
              | Error e -> Alcotest.fail (Client.error_string e)
              | Ok b ->
                check_string "identical verdicts on replay" (Report.canonical a)
                  (Report.canonical b);
                check_int "not a single job re-ran" 0
                  (counter_value "serve_jobs_total" - after_first))));
    test "GET /v1/jobs replays a finished submission" (fun () ->
        with_server (fun srv ->
            let port = Server.port srv in
            let ep = { Client.host = "127.0.0.1"; port } in
            match Client.submit ep ~key:"status-1" ~tiny:true () with
            | Error e -> Alcotest.fail (Client.error_string e)
            | Ok a ->
              (match Client.job_status ep "status-1" with
              | Error e -> Alcotest.fail (Client.error_string e)
              | Ok None -> Alcotest.fail "daemon forgot the key"
              | Ok (Some st) ->
                check_bool "finished" true st.Wire.finished;
                check_int "jobs" 4 st.Wire.jobs;
                check_int "completed" 4 st.Wire.completed;
                let in_matrix_order =
                  List.sort (fun (i, _) (j, _) -> compare i j) st.Wire.verdicts
                  |> List.map snd
                in
                check_string "status equals the stream" (Report.canonical a)
                  (Report.canonical in_matrix_order));
              (match Client.job_status ep "no-such-key" with
              | Ok None -> ()
              | Ok (Some _) -> Alcotest.fail "invented a job"
              | Error e -> Alcotest.fail (Client.error_string e));
              check_int "an invalid key is a 400" 400
                (fst
                   (raw_request ~port ~meth:"POST" ~path:"/v1/campaign"
                      {|{"matrix": "tiny", "key": "bad key!"}|}))));
  ]

(* -- durability across a crash ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* The record tag of one WAL line ([None] for the header). *)
let wal_rec line =
  let s = String.trim line in
  let sentinel = ";end" in
  let n = String.length s and sn = String.length sentinel in
  if n >= sn && String.sub s (n - sn) sn = sentinel then
    match Json.parse (String.trim (String.sub s 0 (n - sn))) with
    | Ok v -> ( match Json.member "rec" v with Some (Json.Str r) -> Some r | _ -> None)
    | Error _ -> None
  else None

(* -- flight recorder -------------------------------------------------------- *)

(* The recorder is process-global (daemons enable it), so every test here
   installs a private ring and restores the default on the way out. *)
let with_flight ~size f () =
  Flight.configure ~size;
  Flight.enable ();
  Fun.protect
    ~finally:(fun () ->
      Flight.disable ();
      Flight.configure ~size:Flight.default_size)
    f

let flight_tests =
  [
    test "events render as ndjson with seq, kind and trace"
      (with_flight ~size:16 (fun () ->
           Flight.event ~kind:"a" ~trace:"rid-1" ~fields:[ ("n", Json.Num 1.) ] ();
           Context.with_id "ambient-rid" (fun () -> Flight.event ~kind:"b" ());
           let lines =
             String.split_on_char '\n' (Flight.dump ())
             |> List.filter (fun l -> String.trim l <> "")
           in
           check_int "two lines" 2 (List.length lines);
           match
             List.map
               (fun l ->
                 match Json.parse l with
                 | Ok v -> v
                 | Error e -> Alcotest.failf "bad line %s: %s" l e)
               lines
           with
           | [ a; b ] ->
             check_bool "kind" true (Json.member "kind" a = Some (Json.Str "a"));
             check_bool "explicit trace" true
               (Json.member "trace" a = Some (Json.Str "rid-1"));
             check_bool "ambient trace adopted" true
               (Json.member "trace" b = Some (Json.Str "ambient-rid"));
             check_bool "field kept" true (Json.member "n" a = Some (Json.Num 1.));
             check_bool "seq ordered" true
               (Json.member "seq" a = Some (Json.Num 0.)
               && Json.member "seq" b = Some (Json.Num 1.))
           | _ -> Alcotest.fail "unexpected dump shape"));
    test "a disabled recorder records nothing"
      (with_flight ~size:8 (fun () ->
           Flight.disable ();
           Flight.event ~kind:"x" ();
           check_int "empty" 0 (List.length (Flight.entries ()))));
    qcheck ~count:30 "4-domain writers: no tears, bounded, newest tickets win"
      QCheck.(pair (int_range 1 32) (int_range 1 128))
      (fun (size, per_domain) ->
        Flight.configure ~size;
        Flight.enable ();
        let writers =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for i = 0 to per_domain - 1 do
                    Flight.event ~kind:"w"
                      ~fields:
                        [ ("d", Json.Num (float_of_int d));
                          ("i", Json.Num (float_of_int i)) ]
                      ()
                  done))
        in
        List.iter Domain.join writers;
        Flight.disable ();
        let total = 4 * per_domain in
        let survivors = min size total in
        let entries = Flight.entries () in
        Flight.configure ~size:Flight.default_size;
        (* after quiescence each slot holds the largest ticket of its residue
           class: the ring is exactly the newest [survivors] events, every
           line a complete JSON object (a torn write could never parse) *)
        List.length entries = survivors
        && List.for_all (fun (_, line) -> Result.is_ok (Json.parse line)) entries
        && List.map fst entries = List.init survivors (fun i -> total - survivors + i));
    test "SIGQUIT dumps the ring to the configured path" (fun () ->
        let path = Filename.temp_file "mechaflight" ".ndjson" in
        Sys.remove path;
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists path then Sys.remove path;
            Sys.set_signal Sys.sigquit Sys.Signal_default;
            Flight.disable ();
            Flight.configure ~size:Flight.default_size)
          (fun () ->
            Flight.configure ~size:16;
            Flight.enable ();
            Flight.install_signal_dump ~path ();
            Flight.event ~kind:"pre_crash" ~trace:"sig-rid" ();
            Unix.kill (Unix.getpid ()) Sys.sigquit;
            (* OCaml runs signal handlers at safepoints: poll for the file *)
            let rec wait n =
              if Sys.file_exists path then ()
              else if n = 0 then Alcotest.fail "dump never appeared"
              else begin
                Unix.sleepf 0.05;
                wait (n - 1)
              end
            in
            wait 100;
            let body = read_file path in
            check_bool "event dumped" true (contains ~sub:"pre_crash" body);
            check_bool "trace id dumped" true (contains ~sub:"sig-rid" body)));
  ]

(* -- end-to-end trace correlation ------------------------------------------- *)

(* The tentpole acceptance test: one submission's trace id must be findable
   in (1) the response header, (2) the streamed ndjson verdict events,
   (3) the WAL accept record, (4) at least four nested spans of the Chrome
   trace, and (5) a flight dump forced by SIGQUIT. *)
let trace_correlation_tests =
  [
    test "one trace id correlates header, stream, WAL, spans and flight dump"
      (fun () ->
        let wal = Filename.temp_file "mechaserve" ".wal" in
        let dump = Filename.temp_file "mechaflight" ".ndjson" in
        Sys.remove wal;
        Sys.remove dump;
        let rid = "e2e-trace-1" in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ wal; dump ];
            Sys.set_signal Sys.sigquit Sys.Signal_default;
            Trace.disable ();
            Trace.reset ();
            Flight.disable ();
            Flight.configure ~size:Flight.default_size)
          (fun () ->
            Trace.enable ();
            Trace.reset ();
            let cfg =
              {
                Server.default with
                Server.wal = Some wal;
                flight_size = Some 64;
                flight_dump = Some dump;
              }
            in
            with_server ~cfg (fun srv ->
                let port = Server.port srv in
                let ep = { Client.host = "127.0.0.1"; port } in
                let echoed = ref None in
                (match
                   Client.submit ep ~tiny:true ~select:"watchdog" ~key:"e2e-1"
                     ~request_id:rid
                     ~on_request_id:(fun r -> echoed := Some r)
                     ()
                 with
                | Ok [ _ ] -> ()
                | Ok outcomes ->
                  Alcotest.failf "expected one verdict, got %d" (List.length outcomes)
                | Error e -> Alcotest.fail (Client.error_string e));
                (* 1: the response header *)
                check_bool "header echoed" true (!echoed = Some rid);
                (* 2: re-attach to the same key with the same id and read the
                   raw chunked stream — every event line carries the id *)
                let _, stream =
                  raw_request_full ~port ~meth:"POST" ~path:"/v1/campaign"
                    ~headers:
                      [ ("content-type", "application/json");
                        ("x-request-id", rid) ]
                    {|{"matrix": "tiny", "select": "watchdog", "key": "e2e-1"}|}
                in
                check_bool "verdict event stamped" true
                  (contains ~sub:({|"request_id":"|} ^ rid ^ {|"|}) stream
                  && contains ~sub:{|"event":"verdict"|} stream));
            (* 3: the WAL accept record *)
            check_bool "WAL accept record stamped" true
              (contains ~sub:({|"request_id":"|} ^ rid ^ {|"|}) (read_file wal));
            (* 4: at least four distinct span names carry the trace arg *)
            (match Json.parse (Trace.export ()) with
            | Error e -> Alcotest.failf "trace export not JSON: %s" e
            | Ok (Json.List events) ->
              let named =
                List.filter_map
                  (fun e ->
                    match Json.member "args" e with
                    | Some args when Json.member "trace" args = Some (Json.Str rid) ->
                      Option.bind (Json.member "name" e) Json.to_str
                    | _ -> None)
                  events
                |> List.sort_uniq compare
              in
              List.iter
                (fun expected ->
                  check_bool ("span " ^ expected ^ " stamped") true
                    (List.mem expected named))
                [ "serve.request"; "serve.job"; "campaign.job"; "loop.closure";
                  "loop.check" ]
            | Ok _ -> Alcotest.fail "trace export is not an array");
            (* 5: the flight dump a SIGQUIT forces *)
            Unix.kill (Unix.getpid ()) Sys.sigquit;
            let rec wait n =
              if Sys.file_exists dump then ()
              else if n = 0 then Alcotest.fail "flight dump never appeared"
              else begin
                Unix.sleepf 0.05;
                wait (n - 1)
              end
            in
            wait 100;
            check_bool "flight dump stamped" true
              (contains ~sub:rid (read_file dump))));
  ]

let durability_tests =
  [
    test "a crashed daemon re-runs only the verdicts the WAL lost" (fun () ->
        let wal = Filename.temp_file "mechaserve" ".wal" in
        Sys.remove wal;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists wal then Sys.remove wal)
          (fun () ->
            let cfg = { Server.default with Server.wal = Some wal } in
            (* first life: run the campaign, journal everything *)
            let expected =
              with_server ~cfg (fun srv ->
                  let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
                  match Client.submit ep ~key:"crash-1" ~tiny:true () with
                  | Ok outcomes -> Report.canonical outcomes
                  | Error e -> Alcotest.fail (Client.error_string e))
            in
            (* simulate the crash: the tail of the log — the done marker, the
               last verdict and a half-written record — never hit the disk *)
            let lines =
              String.split_on_char '\n' (read_file wal)
              |> List.filter (fun l -> String.trim l <> "")
            in
            let header, records =
              match lines with h :: r -> (h, r) | [] -> Alcotest.fail "empty WAL"
            in
            check_bool "WAL recorded the campaign" true
              (List.exists (fun l -> wal_rec l = Some "done") records);
            let records = List.filter (fun l -> wal_rec l <> Some "done") records in
            let records =
              (* drop the last verdict record *)
              let rec go dropped acc = function
                | [] -> List.rev acc
                | l :: rest when (not dropped) && wal_rec l = Some "verdict" ->
                  go true acc rest
                | l :: rest -> go dropped (l :: acc) rest
              in
              go false [] (List.rev records) |> List.rev
            in
            write_file wal
              (String.concat "\n" (header :: records)
              ^ "\n" ^ {|{"rec": "verdict", "key": "crash-|});
            let restored0 = counter_value "serve_wal_restored_total" in
            let replays0 = counter_value "serve_wal_replays_total" in
            let jobs0 = counter_value "serve_jobs_total" in
            (* second life: replay restores three verdicts, re-runs one, and a
               client attaching to the same key gets the full set back *)
            with_server ~cfg (fun srv ->
                let ep = { Client.host = "127.0.0.1"; port = Server.port srv } in
                match Client.submit ep ~key:"crash-1" ~tiny:true () with
                | Error e -> Alcotest.fail (Client.error_string e)
                | Ok outcomes ->
                  check_string "verdicts identical across the crash" expected
                    (Report.canonical outcomes);
                  check_int "three verdicts restored, not re-run" 3
                    (counter_value "serve_wal_restored_total" - restored0);
                  check_int "exactly one job replayed" 1
                    (counter_value "serve_wal_replays_total" - replays0);
                  check_int "exactly one job executed" 1
                    (counter_value "serve_jobs_total" - jobs0))));
  ]

(* -- chaos: the daemon behind a faulty network ------------------------------ *)

let chaos_tests =
  [
    test "a delay-only proxy is transparent" (fun () ->
        with_server (fun srv ->
            let proxy =
              Chaosproxy.start ~target_host:"127.0.0.1" ~target_port:(Server.port srv)
                ~seed:7 ~kinds:[ Chaosproxy.Delay ] ()
            in
            Fun.protect
              ~finally:(fun () -> Chaosproxy.stop proxy)
              (fun () ->
                let ep = { Client.host = "127.0.0.1"; port = Chaosproxy.port proxy } in
                match Client.submit ep ~tiny:true ~select:"watchdog" () with
                | Ok [ _ ] -> ()
                | Ok outcomes ->
                  Alcotest.failf "expected one verdict, got %d" (List.length outcomes)
                | Error e -> Alcotest.fail (Client.error_string e))));
    test "a retrying client converges through resets and garbage, exactly once"
      (fun () ->
        with_server (fun srv ->
            let jobs0 = counter_value "serve_jobs_total" in
            let proxy =
              Chaosproxy.start ~target_host:"127.0.0.1" ~target_port:(Server.port srv)
                ~seed:3 ()
            in
            Fun.protect
              ~finally:(fun () -> Chaosproxy.stop proxy)
              (fun () ->
                let ep = { Client.host = "127.0.0.1"; port = Chaosproxy.port proxy } in
                match
                  Client.submit_with_retry ep ~attempts:15 ~key:"chaos-1" ~tiny:true
                    ~io_timeout_s:5. ()
                with
                | Error e -> Alcotest.fail (Client.error_string e)
                | Ok outcomes ->
                  check_string "verdicts untouched by the faults"
                    (Report.canonical (Campaign.run (Campaign.bundled ~tiny:true ())))
                    (Report.canonical outcomes);
                  check_int "every job executed exactly once" 4
                    (counter_value "serve_jobs_total" - jobs0))));
  ]

let () =
  Alcotest.run "serve"
    [
      ("wire", wire_tests);
      ("scheduler", scheduler_tests);
      ("hostile-http", hostile_tests);
      ("watchdog", watchdog_tests);
      ("quarantine", quarantine_tests);
      ("store", store_tests);
      ("flight", flight_tests);
      ("server", server_tests);
      ("trace-correlation", trace_correlation_tests);
      ("idempotency", idempotency_tests);
      ("durability", durability_tests);
      ("chaos", chaos_tests);
      ("persistence", persistence_tests);
    ]
