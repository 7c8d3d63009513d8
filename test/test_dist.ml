(* Distributed sharding equivalence: a worker-process fleet (here: in-process
   [Distworker] instances behind real sockets, i.e. [Connect] mode with the
   full wire stack) must reproduce the materialized Compose/Sat pipeline and
   the in-process sharded explorer — numbering, labels, adjacency order,
   blocking set and every verdict — byte-identically for every worker count,
   and keep doing so when a worker crashes mid-build or after the build,
   answers an expansion that does not verify, or never comes up. *)

module Automaton = Mechaml_ts.Automaton
module Compose = Mechaml_ts.Compose
module Shard = Mechaml_ts.Shard
module Sat = Mechaml_mc.Sat
module Eval = Mechaml_mc.Eval
module Ctl = Mechaml_logic.Ctl
module Bitset = Mechaml_util.Bitset
module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
module Families = Mechaml_scenarios.Families
module Distshard = Mechaml_dist.Distshard
module Distsat = Mechaml_dist.Distsat
module Distworker = Mechaml_dist.Distworker
module Wire = Mechaml_wire.Shardwire
module Http = Mechaml_wire.Http
module Json = Mechaml_obs.Json
open Helpers

let inputs = [ "a"; "b" ]

let outputs = [ "x"; "y" ]

let machine seed = Families.random_machine ~seed ~states:(4 + (seed mod 5)) ~inputs ~outputs

let context seed =
  Families.random_context ~seed ~states:(6 + (seed mod 7)) ~legacy_inputs:inputs
    ~legacy_outputs:outputs

let sock_path =
  let c = ref 0 in
  fun () ->
    incr c;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mechadist-t-%d-%d.sock" (Unix.getpid ()) !c)

let with_fleet n f =
  let handles = List.init n (fun _ -> Distworker.start (Wire.Unix_sock (sock_path ()))) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun h -> try Distworker.stop h with _ -> ()) handles)
    (fun () ->
      f handles
        (List.map (fun h -> Wire.addr_to_string (Distworker.addr h)) handles))

let dist_config ?mem_budget ?spill_dir ~shards addrs =
  Shard.config ~shards ?mem_budget ?spill_dir
    ~distribution:(Shard.distribution ~deadline_s:60. (Shard.Connect addrs))
    ()

let check_structure product dp =
  let auto = product.Compose.auto in
  let n = Automaton.num_states auto in
  let sp = Distshard.shard dp in
  check_int "states" n (Distshard.num_states dp);
  check_int "transitions" (Automaton.num_transitions auto) (Distshard.num_transitions dp);
  Alcotest.(check (list int)) "initial" auto.Automaton.initial (Shard.initial sp);
  let labels = Array.init (Shard.num_states sp) (Shard.label sp) in
  for s = 0 to n - 1 do
    if not (Mechaml_util.Bitset.equal (Automaton.label auto s) labels.(s)) then
      Alcotest.failf "label mismatch at state %d" s
  done;
  let row = Automaton.Csr.row auto and dst = Automaton.Csr.dst auto in
  let owner = Shard.owner sp and local = Shard.local sp in
  for s = 0 to n - 1 do
    let v = Shard.view sp owner.(s) in
    let m = local.(s) in
    check_int "member" s v.Shard.members.(m);
    let deg = row.(s + 1) - row.(s) in
    if v.Shard.row.(m + 1) - v.Shard.row.(m) <> deg then
      Alcotest.failf "degree mismatch at state %d" s;
    for e = 0 to deg - 1 do
      if v.Shard.dst.(v.Shard.row.(m) + e) <> dst.(row.(s) + e) then
        Alcotest.failf "adjacency mismatch at state %d edge %d" s e
    done;
    if Bitvec.get (Shard.blocking sp) s <> (row.(s + 1) = row.(s)) then
      Alcotest.failf "blocking mismatch at state %d" s
  done

(* full satisfaction sets, not just the initial-state verdicts *)
let check_verdicts ?(formulas = structural_formulas) product dp =
  let env = Sat.create product.Compose.auto in
  let senv = Distsat.create dp in
  List.iter
    (fun f ->
      let name = Fmt.to_to_string Ctl.pp f in
      if not (Bitvec.equal (Eval.sat_vec env f) (Eval.sat_vec senv f)) then
        Alcotest.failf "sat set mismatch on %s" name;
      if Eval.holds_initially env f <> Distsat.holds_initially senv f then
        Alcotest.failf "verdict mismatch on %s" name;
      if Eval.failing_initial env f <> Eval.failing_initial senv f then
        Alcotest.failf "failing-initial mismatch on %s" name)
    formulas

let scenario ?pair ~seed ~shards ~workers ?mem_budget ?spill_dir ?chaos_die_after
    ?(expect_restarts = 0) () =
  with_fleet workers (fun _handles addrs ->
      let left, right =
        match pair with
        | Some p -> p
        | None -> (machine seed, context (seed + 17))
      in
      let product = Compose.parallel left right in
      let dp =
        Distshard.explore
          ~config:(dist_config ?mem_budget ?spill_dir ~shards addrs)
          ?chaos_die_after left right
      in
      Fun.protect
        ~finally:(fun () -> Distshard.close dp)
        (fun () ->
          check_structure product dp;
          check_verdicts
            ~formulas:(if pair = None then structural_formulas else mesh_formulas)
            product dp;
          if Distshard.restarts dp < expect_restarts then
            Alcotest.failf "expected >= %d worker restart(s), saw %d" expect_restarts
              (Distshard.restarts dp)))

let equivalence_tests =
  List.concat_map
    (fun (workers, shards) ->
      List.map
        (fun seed ->
          test
            (Printf.sprintf "seed %d, %d worker(s), %d shard(s)" seed workers shards)
            (scenario ~seed ~shards ~workers))
        [ 1; 2; 4 ]
      @ [
          test
            (Printf.sprintf "mesh 23x16, %d worker(s), %d shard(s)" workers shards)
            (scenario ~pair:(mesh_pair ~w:23 ~h:16) ~seed:0 ~shards ~workers);
        ])
    [ (1, 2); (2, 4); (2, 8) ]

let recovery_tests =
  [
    test "worker crash mid-build: shards re-dispatched, product identical" (fun () ->
        scenario ~seed:2 ~shards:4 ~workers:2 ~chaos_die_after:(0, 1) ~expect_restarts:1
          ());
    test "worker crash mid-build with spilling engaged" (fun () ->
        scenario ~seed:4 ~shards:4 ~workers:2 ~mem_budget:2048 ~chaos_die_after:(1, 2)
          ~expect_restarts:1 ());
    test "worker lost after the build: verdicts still byte-identical" (fun () ->
        with_fleet 2 (fun handles addrs ->
            let left = machine 3 and right = context 20 in
            let product = Compose.parallel left right in
            let dp =
              Distshard.explore ~config:(dist_config ~shards:4 addrs) left right
            in
            Fun.protect
              ~finally:(fun () -> Distshard.close dp)
              (fun () ->
                check_structure product dp;
                (* kill one worker between the build and the checks: the
                   survivor must be installed with its shards mid-operator *)
                Distworker.stop (List.hd handles);
                check_verdicts product dp;
                check_bool "a restart was recorded" true (Distshard.restarts dp >= 1))));
  ]

(* A fake worker speaking the wire protocol: every op succeeds, and every
   expansion answers well-formed counts whose successor keys are all
   [pairs] — one past the product's pair space. *)
let with_fake_worker ~pairs f =
  let addr = Wire.Unix_sock (sock_path ()) in
  let fd = Wire.listen addr in
  let stop = Atomic.make false in
  let answer (m : Wire.msg) =
    let data =
      if Wire.jstr m.Wire.meta "op" <> "expand" then []
      else
        List.concat_map
          (fun (name, _) ->
            let k = String.sub name 1 (String.length name - 1) in
            let n = Array.length (Wire.ints m.Wire.data name) in
            [
              ("c" ^ k, Segment.Ints (Array.make n 1));
              ("s" ^ k, Segment.Ints (Array.make n pairs));
            ])
          m.Wire.data
    in
    Wire.msg ~data (Json.Obj [ ("ok", Json.Bool true) ])
  in
  let serve () =
    while not (Atomic.get stop) do
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ ->
        let conn = Http.conn (fst (Unix.accept fd)) in
        (try
           let req = Http.read_request ~max_body:max_int conn in
           Http.respond conn ~status:200 (Wire.encode (answer (Wire.decode req.Http.body)))
         with _ -> ());
        Http.close conn
    done;
    Unix.close fd
  in
  let d = Domain.spawn serve in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d;
      match addr with
      | Wire.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
      | Wire.Tcp _ -> ())
    (fun () -> f (Wire.addr_to_string addr))

let fault_tests =
  let left = machine 1 and right = context 18 in
  let pairs = Automaton.num_states left * Automaton.num_states right in
  [
    test "a client that hangs up before its reply leaves the worker serving" (fun () ->
        with_fleet 1 (fun _ addrs ->
            let addr = Wire.addr_of_string (List.hd addrs) in
            let ping = Wire.msg (Json.Obj [ ("op", Json.Str "ping") ]) in
            (* with its receive side shut, the worker's reply fails to write *)
            let fd = Wire.connect addr in
            Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
            let c = Http.conn fd in
            Http.write_request c ~meth:"POST" ~path:"/v1/dist/ping" (Wire.encode ping);
            Http.close c;
            match Wire.call ~deadline_s:5. addr ~path:"/v1/dist/ping" ping with
            | _ -> ()
            | exception e ->
              Alcotest.failf "the worker stopped answering: %s" (Printexc.to_string e)));
    test "a lone worker answering out-of-range keys fails the build with Dist_error"
      (fun () ->
        with_fake_worker ~pairs (fun fake ->
            match Distshard.explore ~config:(dist_config ~shards:2 [ fake ]) left right with
            | dp ->
              Distshard.close dp;
              Alcotest.fail "the build merged an out-of-range successor key"
            | exception Distshard.Dist_error _ -> ()));
    test "a worker answering out-of-range keys is replaced, product identical" (fun () ->
        with_fake_worker ~pairs (fun fake ->
            with_fleet 1 (fun _ addrs ->
                let product = Compose.parallel left right in
                let dp =
                  Distshard.explore ~config:(dist_config ~shards:4 (fake :: addrs)) left right
                in
                Fun.protect
                  ~finally:(fun () -> Distshard.close dp)
                  (fun () ->
                    check_structure product dp;
                    check_verdicts product dp;
                    check_bool "the fake worker was replaced" true (Distshard.restarts dp >= 1)))));
    test "a forked worker that exits before its first ping fails fast with Dist_error"
      (fun () ->
        let saved = Option.value (Sys.getenv_opt "MECHAVERIFY_BIN") ~default:"" in
        Unix.putenv "MECHAVERIFY_BIN" "/bin/false";
        Fun.protect
          ~finally:(fun () -> Unix.putenv "MECHAVERIFY_BIN" saved)
          (fun () ->
            let config =
              Shard.config ~shards:2 ~distribution:(Shard.distribution (Shard.Fork 1)) ()
            in
            let t0 = Unix.gettimeofday () in
            (match Distshard.explore ~config left right with
            | dp ->
              Distshard.close dp;
              Alcotest.fail "a fleet of /bin/false came up"
            | exception Distshard.Dist_error _ -> ());
            let dt = Unix.gettimeofday () -. t0 in
            if dt >= 5. then Alcotest.failf "Dist_error only after %.1f s" dt));
    test "hostile fixpoint and install requests get a 400, the worker keeps serving"
      (fun () ->
        let left, right = mesh_pair ~w:23 ~h:16 in
        let sp = Shard.explore ~config:(Shard.config ~shards:2 ()) left right in
        Fun.protect
          ~finally:(fun () -> Shard.close sp)
          (fun () ->
            with_fleet 1 (fun _ addrs ->
                let addr = Wire.addr_of_string (List.hd addrs) in
                let call ?(data = []) op fields =
                  Wire.call ~deadline_s:5. addr ~path:("/v1/dist/" ^ op)
                    (Wire.msg ~data
                       (Json.Obj (("op", Json.Str op) :: ("sid", Json.Str "hostile") :: fields)))
                in
                let n = Shard.num_states sp in
                let v0 = Shard.view sp 0 and v1 = Shard.view sp 1 in
                let seg ?(members = v0.Shard.members) ?(row = v0.Shard.row)
                    ?(dst = v0.Shard.dst) ?(psrc = v0.Shard.psrc) () =
                  [
                    ("members", Segment.Ints members);
                    ("row", Segment.Ints row);
                    ("dst", Segment.Ints dst);
                    ("prow", Segment.Ints v0.Shard.prow);
                    ("psrc", Segment.Ints psrc);
                  ]
                in
                let adopt data = call "adopt_seg" ~data [ ("shard", Wire.num 0) ] in
                let fix_init kind data = call "fix_init" ~data [ ("kind", Json.Str kind) ] in
                let refused what f =
                  (match f () with
                  | _ -> Alcotest.failf "%s was accepted" what
                  | exception Wire.Wire_error m ->
                    let affix = "answered 400" in
                    let k = String.length affix in
                    if
                      not
                        (List.exists
                           (fun i -> String.sub m i k = affix)
                           (List.init (max 0 (String.length m - k + 1)) Fun.id))
                    then Alcotest.failf "%s: %s" what m);
                  match call "ping" [] with
                  | _ -> ()
                  | exception e ->
                    Alcotest.failf "after %s the worker stopped answering: %s" what
                      (Printexc.to_string e)
                in
                (* a right operand whose first state's escape is hostile *)
                let escaped escape =
                  match Wire.json_of_automaton right with
                  | Json.Obj fields ->
                    Json.Obj
                      (fields
                      @ [
                          ( "escapes",
                            Json.List
                              (escape
                              :: List.init (Automaton.num_states right - 1) (fun _ -> Json.Null)) );
                        ])
                  | _ -> assert false
                in
                let escape excluded dsts = Json.List [ Wire.nums excluded; Wire.nums dsts ] in
                List.iter
                  (fun (what, e) ->
                    refused what (fun () ->
                        call "open"
                          [
                            ("shards", Wire.num 2);
                            ("left", Wire.json_of_automaton left);
                            ("right", escaped e);
                          ]))
                  [
                    ("an escape past the last state", escape [] [ Automaton.num_states right ]);
                    ("an escape to a negative state", escape [] [ -1 ]);
                    ("a negative excluded pattern", escape [ -1 ] [ 0 ]);
                    ("an excluded pattern outside the inputs", escape [ 8 ] [ 0 ]);
                    ("excluded patterns out of order", escape [ 3; 1 ] [ 0 ]);
                    ("a malformed escape", Json.Str "everything");
                  ];
                ignore
                  (call "open"
                     [
                       ("shards", Wire.num 2);
                       ("left", Wire.json_of_automaton left);
                       ("right", Wire.json_of_automaton right);
                     ]);
                ignore
                  (call "ctx"
                     ~data:
                       [
                         ("owner", Segment.Ints (Shard.owner sp));
                         ("local", Segment.Ints (Shard.local sp));
                       ]
                     []);
                ignore (adopt (seg ()));
                let all = Segment.Bits (Bitvec.create_full n) in
                refused "eu without a guard" (fun () -> fix_init "eu" [ ("seed", all) ]);
                refused "a round after the refused init" (fun () -> call "fix_round" []);
                refused "au without a guard" (fun () -> fix_init "au" [ ("seed", all) ]);
                refused "a 1-bit seed" (fun () ->
                    fix_init "ef" [ ("seed", Segment.Bits (Bitvec.create 1)) ]);
                refused "a 1-bit guard" (fun () ->
                    fix_init "eu" [ ("seed", all); ("guard", Segment.Bits (Bitvec.create 1)) ]);
                refused "a 1-bit agg operand" (fun () ->
                    call "agg"
                      ~data:[ ("x", Segment.Bits (Bitvec.create 1)) ]
                      [ ("kind", Json.Str "forall") ]);
                ignore (fix_init "ef" [ ("seed", Segment.Bits (Bitvec.create n)) ]);
                let round items = call "fix_round" ~data:items [] in
                refused "an out-of-range boundary item" (fun () ->
                    round [ ("in0", Segment.Ints [| n |]) ]);
                refused "a boundary item of another shard" (fun () ->
                    round [ ("in0", Segment.Ints [| v1.Shard.members.(0) |]) ]);
                refused "items for a shard not adopted" (fun () ->
                    round [ ("in1", Segment.Ints [| v1.Shard.members.(0) |]) ]);
                let rows = Array.length v0.Shard.row in
                refused "a short row" (fun () ->
                    adopt (seg ~row:(Array.sub v0.Shard.row 0 (rows - 1)) ()));
                refused "a row that runs backwards" (fun () ->
                    let row = Array.copy v0.Shard.row in
                    row.(1) <- row.(2) + 1;
                    adopt (seg ~row ()));
                refused "a successor past the last state" (fun () ->
                    adopt (seg ~dst:(Array.map (fun _ -> n) v0.Shard.dst) ()));
                refused "a negative predecessor" (fun () ->
                    adopt (seg ~psrc:(Array.map (fun _ -> -1) v0.Shard.psrc) ()));
                refused "members of another shard" (fun () ->
                    adopt (seg ~members:v1.Shard.members ()));
                (* the session still computes: EF of everything is everything *)
                ignore (fix_init "ef" [ ("seed", all) ]);
                ignore (round []);
                let reply, _, _ = call "fix_done" [] in
                check_bool "the session still answers" true
                  (Bitvec.equal (Wire.bits reply.Wire.data "out") (Bitvec.create_full n)))));
  ]

(* Every field of two sharded products, compared exactly. *)
let same_product a b =
  Shard.num_states a = Shard.num_states b
  && Shard.num_transitions a = Shard.num_transitions b
  && Shard.initial a = Shard.initial b
  && Shard.owner a = Shard.owner b
  && Shard.local a = Shard.local b
  && Shard.sizes a = Shard.sizes b
  && Array.for_all2 Bitset.equal
       (Array.init (Shard.num_states a) (Shard.label a))
       (Array.init (Shard.num_states b) (Shard.label b))
  && Bitvec.equal (Shard.blocking a) (Shard.blocking b)
  && List.for_all (fun k -> Shard.view a k = Shard.view b k) (List.init (Shard.shards a) Fun.id)

let transport_tests =
  [
    qcheck ~count:20 "the fleet's product equals the in-process one, field by field"
      QCheck.(
        quad (int_range 1 40) (oneofl [ 1; 3; 8 ]) (oneofl [ 1; 2 ]) (option (int_range 0 3)))
      (fun (seed, shards, workers, die) ->
        let left = machine seed and right = context (seed + 17) in
        (* a crash needs a survivor to take the shards over *)
        let chaos_die_after =
          if workers = 2 && shards > 1 then Option.map (fun r -> (0, r)) die else None
        in
        with_fleet workers (fun _ addrs ->
            let dp =
              Distshard.explore ~config:(dist_config ~shards addrs) ?chaos_die_after left right
            in
            Fun.protect
              ~finally:(fun () -> Distshard.close dp)
              (fun () ->
                let sp = Shard.explore ~config:(Shard.config ~shards ()) left right in
                Fun.protect
                  ~finally:(fun () -> Shard.close sp)
                  (fun () -> same_product (Distshard.shard dp) sp))));
  ]

let spill_tests =
  [
    test "tiny budget forces coordinator spills without changing anything" (fun () ->
        let before = Segment.total_spills () in
        scenario ~pair:(mesh_pair ~w:23 ~h:16) ~seed:0 ~shards:4 ~workers:2
          ~mem_budget:1024 ();
        check_bool "spills engaged" true (Segment.total_spills () > before));
    test "spill directory is removed on close" (fun () ->
        let dir = Filename.temp_file "mechadist-test" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        scenario ~pair:(mesh_pair ~w:23 ~h:16) ~seed:0 ~shards:4 ~workers:2
          ~mem_budget:1024 ~spill_dir:dir ();
        check_bool "no leftovers" true (Sys.readdir dir = [||]);
        Unix.rmdir dir);
  ]

let () =
  Alcotest.run "dist"
    [
      ("equivalence", equivalence_tests);
      ("recovery", recovery_tests);
      ("faults", fault_tests);
      ("transport", transport_tests);
      ("spill", spill_tests);
    ]
