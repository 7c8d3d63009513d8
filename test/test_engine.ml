(* Campaign engine: the worker pool, the memo cache and the job runner must
   never change a verdict — parallelism and caching only move time around.
   The tests pin that contract: jobs=1 and jobs=4 produce byte-identical
   canonical reports, a warm cache answers from memory without changing
   results, and a timed-out job is reported as such without poisoning its
   siblings. *)

module Campaign = Mechaml_engine.Campaign
module Cache = Mechaml_engine.Cache
module Pool = Mechaml_engine.Pool
module Report = Mechaml_engine.Report
module Railcab = Mechaml_scenarios.Railcab
module Flaky = Mechaml_legacy.Flaky
module Supervisor = Mechaml_legacy.Supervisor
open Helpers

let contains ~sub text =
  let n = String.length sub and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
  go 0

(* The RailCab slice of the bundled matrix: both fault variants under both
   strategies, plus the flaky driver exercising the retry path. *)
let railcab_matrix () =
  List.filter
    (fun (s : Campaign.spec) -> s.Campaign.family = "railcab")
    (Campaign.bundled ())

let correct_job ~id =
  Campaign.job ~id ~family:"railcab" ~context:Railcab.context
    ~property:Railcab.constraint_ ~label_of:Railcab.label_of (fun () -> Railcab.box_correct)

let unit_tests =
  [
    test "a 40-signal lock is proved: the loop enumerates no interaction powerset" (fun () ->
        let module Families = Mechaml_scenarios.Families in
        let n = 4 and spares = (20, 17) in
        let o =
          Campaign.run_spec
            (Campaign.job ~id:"lock/wide40" ~family:"lock"
               ~context:(Families.wide_lock_context ~n ~depth:(n - 1) ~spares)
               ~property:Families.lock_property ~label_of:Families.lock_label_of
               (fun () -> Families.wide_lock_box ~n ~spares))
        in
        check_string "verdict" "proved" (Campaign.verdict_string o.Campaign.verdict);
        check_bool "beyond the enumeration cap" true
          (3 + fst spares + snd spares > Mechaml_core.Chaos.max_alphabet));
    test "jobs=1 and jobs=4 produce identical verdict sets" (fun () ->
        let sequential = Campaign.run ~jobs:1 (railcab_matrix ()) in
        let parallel = Campaign.run ~jobs:4 (railcab_matrix ()) in
        check_string "canonical reports" (Report.canonical sequential)
          (Report.canonical parallel));
    test "a warm cache changes no verdicts and reports hits" (fun () ->
        let cache = Cache.create () in
        let cold = Campaign.run ~jobs:1 ~cache (railcab_matrix ()) in
        let warm = Campaign.run ~jobs:1 ~cache (railcab_matrix ()) in
        check_string "verdicts unchanged" (Report.canonical cold) (Report.canonical warm);
        let hits =
          List.fold_left
            (fun acc (o : Campaign.outcome) ->
              acc + o.Campaign.cache.Campaign.closure_hits
              + o.Campaign.cache.Campaign.check_hits)
            0 warm
        in
        check_bool "warm run hits the cache" true (hits > 0);
        (* every stage of every deterministic job replays from memory *)
        let misses =
          List.fold_left
            (fun acc (o : Campaign.outcome) ->
              acc + o.Campaign.cache.Campaign.closure_misses
              + o.Campaign.cache.Campaign.check_misses)
            0 warm
        in
        check_int "warm run recomputes nothing" 0 misses;
        check_bool "cache stats agree" true (Cache.hits (Cache.stats cache) >= hits));
    test "a timed-out job is reported without poisoning siblings" (fun () ->
        let timed =
          { (correct_job ~id:"railcab/timed") with Campaign.timeout = Some 0. }
        in
        let outcomes =
          Campaign.run ~jobs:2 [ timed; correct_job ~id:"railcab/healthy" ]
        in
        (match outcomes with
        | [ t; h ] ->
          check_bool "timed out" true (t.Campaign.verdict = Campaign.Timed_out);
          check_int "no iteration completed" 0 t.Campaign.iterations;
          check_bool "sibling proved" true (h.Campaign.verdict = Campaign.Proved)
        | _ -> Alcotest.fail "expected two outcomes in spec order"));
    test "crashed attempts are retried and counted" (fun () ->
        (* a nondeterministic driver trips the replay guardrail on every
           attempt: all retries are consumed and the failure is reported *)
        let flaky =
          Campaign.job ~id:"railcab/flaky" ~family:"railcab" ~context:Railcab.context
            ~property:Railcab.constraint_ ~label_of:Railcab.label_of ~retries:2 (fun () ->
              Flaky.nondeterministic ~seed:3 ~flip_every:5 Railcab.box_correct)
        in
        match Campaign.run [ flaky ] with
        | [ o ] ->
          check_int "attempts = 1 + retries" 3 o.Campaign.attempts;
          check_bool "failed verdict carries the error" true
            (match o.Campaign.verdict with
            | Campaign.Failed e -> String.length e > 0
            | _ -> false)
        | _ -> Alcotest.fail "expected one outcome");
    test "duplicate job ids are rejected" (fun () ->
        match Campaign.run [ correct_job ~id:"dup"; correct_job ~id:"dup" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "duplicate id accepted");
    test "pool keeps order and propagates exceptions" (fun () ->
        let doubled =
          Pool.map ~jobs:4 ~f:(fun i -> 2 * i) (Array.init 100 (fun i -> i))
        in
        check_bool "ordered results" true
          (Array.to_list doubled = List.init 100 (fun i -> 2 * i));
        match Pool.map ~jobs:3 ~f:(fun i -> if i = 5 then failwith "boom" else i)
                (Array.init 8 (fun i -> i))
        with
        | exception Failure msg -> check_string "first failure wins" "boom" msg
        | _ -> Alcotest.fail "exception swallowed");
    test "json and csv reports carry every job" (fun () ->
        let outcomes = Campaign.run ~jobs:2 (Campaign.bundled ~tiny:true ()) in
        let json = Report.to_json ~jobs:2 outcomes in
        let csv = Report.to_csv outcomes in
        List.iter
          (fun (o : Campaign.outcome) ->
            check_bool ("json has " ^ o.Campaign.spec_id) true
              (let sub = Printf.sprintf "\"id\": \"%s\"" o.Campaign.spec_id in
               let n = String.length sub and m = String.length json in
               let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
               go 0))
          outcomes;
        check_int "csv rows = jobs + header" (List.length outcomes + 1)
          (List.length
             (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv))));
    test "supervised fault injection keeps verdicts worker-independent" (fun () ->
        let supervised =
          Campaign.job ~id:"inj/chaos" ~family:"railcab" ~context:Railcab.context
            ~property:Railcab.constraint_ ~label_of:Railcab.label_of
            ~inject:"crash+flaky" ~seed:11
            ~policy:{ Supervisor.default_policy with retries = 5; votes = 3; breaker = 24 }
            (fun () -> Railcab.box_correct)
        and bricked =
          Campaign.job ~id:"inj/brick" ~family:"railcab" ~context:Railcab.context
            ~property:Railcab.constraint_ ~label_of:Railcab.label_of ~inject:"brick"
            ~seed:1
            ~policy:{ Supervisor.default_policy with retries = 4; breaker = 3 }
            (fun () -> Railcab.box_correct)
        in
        let matrix = [ supervised; bricked; correct_job ~id:"inj/clean" ] in
        let sequential = Campaign.run ~jobs:1 matrix in
        let parallel = Campaign.run ~jobs:2 matrix in
        check_string "canonical reports" (Report.canonical sequential)
          (Report.canonical parallel);
        match sequential with
        | [ chaos; brick; clean ] ->
          check_bool "chaos still proves" true (chaos.Campaign.verdict = Campaign.Proved);
          (match chaos.Campaign.supervision with
          | Some s ->
            check_bool "crashes healed" true (s.Supervisor.crashes > 0);
            check_bool "ballots held" true (s.Supervisor.votes_held > 0)
          | None -> Alcotest.fail "supervised job lost its stats");
          (match brick.Campaign.verdict with
          | Campaign.Degraded { reason } ->
            check_bool "reason survives" true (String.length reason > 0)
          | _ -> Alcotest.fail "bricked job must degrade, not fail");
          (match brick.Campaign.supervision with
          | Some s -> check_bool "trip counted" true (s.Supervisor.breaker_trips >= 1)
          | None -> Alcotest.fail "bricked job lost its stats");
          check_bool "clean sibling unaffected" true
            (clean.Campaign.verdict = Campaign.Proved);
          check_bool "clean job reports no fault" true (clean.Campaign.fault = None)
        | _ -> Alcotest.fail "expected three outcomes in spec order");
    test "a bad fault profile fails only its own job" (fun () ->
        let bad =
          { (correct_job ~id:"inj/bad") with Campaign.inject = Some "nope" }
        in
        match Campaign.run ~jobs:2 [ bad; correct_job ~id:"inj/ok" ] with
        | [ b; ok ] ->
          check_bool "bad profile is a Failed verdict" true
            (match b.Campaign.verdict with
            | Campaign.Failed msg -> contains ~sub:"nope" msg
            | _ -> false);
          check_bool "sibling proved" true (ok.Campaign.verdict = Campaign.Proved)
        | _ -> Alcotest.fail "expected two outcomes");
    test "degraded verdicts reach every report format" (fun () ->
        let brick =
          Campaign.job ~id:"report/brick" ~family:"railcab" ~context:Railcab.context
            ~property:Railcab.constraint_ ~label_of:Railcab.label_of ~inject:"brick"
            ~seed:1
            ~policy:{ Supervisor.default_policy with retries = 2; breaker = 3 }
            (fun () -> Railcab.box_correct)
        in
        let outcomes = Campaign.run [ brick ] in
        check_bool "table shows the degradation" true
          (contains ~sub:"degraded" (Report.table outcomes));
        check_bool "json shows the degradation" true
          (contains ~sub:"\"verdict\": \"degraded\"" (Report.to_json ~jobs:1 outcomes));
        check_bool "csv shows the degradation" true
          (contains ~sub:"degraded" (Report.to_csv outcomes));
        check_bool "canonical shows the degradation" true
          (contains ~sub:"degraded" (Report.canonical outcomes)));
  ]

(* -- cache eviction and persistence ---------------------------------------- *)

let tiny_auto name =
  automaton ~name ~inputs:[ "i" ] ~outputs:[ "o" ]
    ~trans:[ ("s", [ "i" ], [ "o" ], "s") ]
    ~initial:[ "s" ] ()

let cache_tests =
  [
    test "eviction is LRU with touch-on-hit, not FIFO" (fun () ->
        let c = Cache.create ~capacity:2 () in
        let get key = Cache.closure c ~key (fun () -> tiny_auto key) in
        ignore (get "a");
        ignore (get "b");
        (* a hit refreshes recency: "a" becomes MRU, "b" the LRU *)
        let _, hit = get "a" in
        check_bool "a answers from the cache" true hit;
        (* inserting "c" over capacity evicts "b"; FIFO would evict "a" *)
        ignore (get "c");
        let _, hit_a = get "a" in
        check_bool "the touched entry survived capacity pressure" true hit_a;
        let _, hit_b = get "b" in
        check_bool "the least-recently-used entry was evicted" false hit_b;
        check_bool "evictions counted" true ((Cache.stats c).Cache.evictions >= 1));
    test "a losing racer keeps its own computed value" (fun () ->
        (* Two domains racing on one fresh key both compute; the first store
           wins for future lookups, but the loser must get back the object its
           own [compute] returned — Loop's incremental-closure handle compares
           it physically against the handle's automaton, and swapping in the
           winner's structurally identical copy made the handle derive an
           empty dirty delta and serve stale product rows.  A re-entrant
           [compute] plays the winner deterministically. *)
        let c = Cache.create () in
        let winner = tiny_auto "racer" in
        let mine = tiny_auto "racer" in
        let got, hit =
          Cache.closure c ~key:"k"
            (fun () ->
              ignore (Cache.closure c ~key:"k" (fun () -> winner));
              mine)
        in
        check_bool "reported as a miss" false hit;
        check_bool "loser's own value returned" true (got == mine);
        let stored, hit = Cache.closure c ~key:"k" (fun () -> assert false) in
        check_bool "later lookups hit" true hit;
        check_bool "first store won" true (stored == winner));
    test "snapshot save/load restores entries without counters" (fun () ->
        let c = Cache.create () in
        ignore (Cache.closure c ~key:"k1" (fun () -> tiny_auto "k1"));
        ignore (Cache.closure c ~key:"k2" (fun () -> tiny_auto "k2"));
        let path = Filename.temp_file "mechaml_cache" ".snap" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            Cache.save c ~path;
            let fresh = Cache.create () in
            (match Cache.load fresh ~path with
            | Ok n -> check_int "entries restored" 2 n
            | Error e -> Alcotest.fail e);
            let s = Cache.stats fresh in
            check_int "restored entries visible" 2 s.Cache.entries;
            check_int "counters start from zero" 0 (Cache.lookups s);
            let v, hit =
              Cache.closure fresh ~key:"k1" (fun () ->
                  Alcotest.fail "restored entry recomputed")
            in
            check_bool "restored entry hits" true hit;
            check_string "restored value intact" "k1"
              v.Mechaml_ts.Automaton.name));
    test "a capacity-bounded load keeps the most recent entries" (fun () ->
        let big = Cache.create () in
        List.iter
          (fun key -> ignore (Cache.closure big ~key (fun () -> tiny_auto key)))
          [ "old"; "mid"; "new" ];
        let path = Filename.temp_file "mechaml_cache" ".snap" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            Cache.save big ~path;
            let small = Cache.create ~capacity:2 () in
            (match Cache.load small ~path with
            | Ok n -> check_int "capacity entries restored" 2 n
            | Error e -> Alcotest.fail e);
            let hit key =
              snd (Cache.closure small ~key (fun () -> tiny_auto key))
            in
            check_bool "newest survives" true (hit "new");
            check_bool "second newest survives" true (hit "mid");
            check_int "truncation is not eviction churn" 0
              (Cache.stats small).Cache.evictions));
    test "loading a missing or corrupt snapshot is an error, not a crash" (fun () ->
        let c = Cache.create () in
        (match Cache.load c ~path:"/nonexistent/mechaml.snap" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "missing file loaded");
        let path = Filename.temp_file "mechaml_cache" ".snap" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "not a cache snapshot at all";
            close_out oc;
            (match Cache.load c ~path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "foreign file loaded");
            (* correct header, garbage payload *)
            let oc = open_out_bin path in
            output_string oc "mechaml-cache 3\ngarbage payload";
            close_out oc;
            (match Cache.load c ~path with
            | Error _ -> check_int "cache unharmed" 0 (Cache.stats c).Cache.entries
            | Ok _ -> Alcotest.fail "corrupt payload loaded");
            (* older versions are refused on their header alone, before any
               payload is unmarshalled: a version-1 snapshot holds
               product-digest check keys no current key can reach, and a
               version-2 one closures of the record type before escapes,
               which a typed read would misinterpret.  The payload here is
               a well-formed current one, so only the header can refuse
               it. *)
            let donor = Cache.create () in
            ignore (Cache.closure donor ~key:"k" (fun () -> tiny_auto "k"));
            Cache.save donor ~path;
            let raw = In_channel.with_open_bin path In_channel.input_all in
            let nl = String.index raw '\n' in
            List.iter
              (fun header ->
                let oc = open_out_bin path in
                output_string oc header;
                output_string oc (String.sub raw nl (String.length raw - nl));
                close_out oc;
                match Cache.load c ~path with
                | Error _ -> check_int (header ^ " not restored") 0 (Cache.stats c).Cache.entries
                | Ok _ -> Alcotest.failf "%s snapshot loaded" header)
              [ "mechaml-cache 1"; "mechaml-cache 2" ];
            (* the untouched current file does load *)
            let oc = open_out_bin path in
            output_string oc raw;
            close_out oc;
            match Cache.load c ~path with
            | Ok n -> check_int "current snapshot restored" 1 n
            | Error e -> Alcotest.fail e));
    test "existing entries win over snapshot entries under the same key" (fun () ->
        let donor = Cache.create () in
        ignore (Cache.closure donor ~key:"shared" (fun () -> tiny_auto "from_snapshot"));
        let path = Filename.temp_file "mechaml_cache" ".snap" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            Cache.save donor ~path;
            let live = Cache.create () in
            ignore (Cache.closure live ~key:"shared" (fun () -> tiny_auto "live"));
            (match Cache.load live ~path with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            let v, hit = Cache.closure live ~key:"shared" (fun () -> tiny_auto "x") in
            check_bool "hit" true hit;
            check_string "live value kept" "live" v.Mechaml_ts.Automaton.name));
  ]

let () = Alcotest.run "engine" [ ("engine", unit_tests); ("cache", cache_tests) ]
