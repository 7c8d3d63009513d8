(* Shardwire codec: the coordinator↔worker frame must round-trip every
   payload kind bit for bit, and every form of damage — truncation, garbage,
   a corrupted segment digest, a damaged header — must surface as
   [Wire_error], never as silently wrong data.  The automaton codec must be
   order-preserving: a worker re-enumerates joint moves from the decoded
   automata, so adjacency order is part of the contract. *)

module Wire = Mechaml_wire.Shardwire
module Segment = Mechaml_util.Segment
module Bitvec = Mechaml_util.Bitvec
module Json = Mechaml_obs.Json
module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Families = Mechaml_scenarios.Families
open Helpers

let sample_payload () =
  [
    ("e", Segment.Ints (Array.init 257 (fun i -> (i * 7919) land 0xFFFFF)));
    ("b", Segment.Bits (Bitvec.init 100 (fun i -> i mod 3 = 0)));
    ("empty", Segment.Ints [||]);
  ]

let sample_msg () =
  Wire.msg
    ~data:(sample_payload ())
    (Json.Obj [ ("op", Json.Str "round"); ("k", Wire.num 7); ("ids", Wire.nums [ 1; 5; 9 ]) ])

let expect_wire_error label f =
  match f () with
  | exception Wire.Wire_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Wire_error" label

let codec_tests =
  [
    test "frame round-trips meta and every payload field" (fun () ->
        let m = sample_msg () in
        let m' = Wire.decode (Wire.encode m) in
        check_string "op" "round" (Wire.jstr m'.Wire.meta "op");
        check_int "k" 7 (Wire.jint m'.Wire.meta "k");
        Alcotest.(check (list int)) "ids" [ 1; 5; 9 ] (Wire.jints m'.Wire.meta "ids");
        Alcotest.(check (array int))
          "ints" (Wire.ints (sample_payload ()) "e")
          (Wire.ints m'.Wire.data "e");
        check_bool "bits" true
          (Bitvec.equal (Wire.bits (sample_payload ()) "b") (Wire.bits m'.Wire.data "b"));
        check_int "empty field survives" 0 (Array.length (Wire.ints m'.Wire.data "empty")));
    test "data-less frame round-trips" (fun () ->
        let m = Wire.msg (Json.Obj [ ("op", Json.Str "ping") ]) in
        let m' = Wire.decode (Wire.encode m) in
        check_string "op" "ping" (Wire.jstr m'.Wire.meta "op");
        check_bool "no data" true (m'.Wire.data = []));
    test "every truncation raises Wire_error" (fun () ->
        let s = Wire.encode (sample_msg ()) in
        List.iter
          (fun n ->
            expect_wire_error
              (Printf.sprintf "cut to %d bytes" n)
              (fun () -> Wire.decode (String.sub s 0 n)))
          [ 0; 3; 5; String.length s / 2; String.length s - 1 ]);
    test "garbage raises Wire_error" (fun () ->
        List.iter
          (fun g -> expect_wire_error g (fun () -> Wire.decode g))
          [ "hello world"; "msw1 banana 0\n{}"; "msw1 2 0\n{}trailing"; "\x00\x01\x02" ]);
    test "corrupted segment byte fails the digest, never decodes" (fun () ->
        let s = Wire.encode (sample_msg ()) in
        (* flip one byte in the bulk (mechaseg) part, well past the JSON *)
        let b = Bytes.of_string s in
        let i = Bytes.length b - 40 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
        expect_wire_error "flipped segment byte" (fun () ->
            Wire.decode (Bytes.to_string b)));
    test "damaged magic raises Wire_error" (fun () ->
        let s = Wire.encode (sample_msg ()) in
        let b = Bytes.of_string s in
        Bytes.set b 3 '2';
        expect_wire_error "msw2" (fun () -> Wire.decode (Bytes.to_string b)));
    test "accessors fail closed on missing or ill-typed fields" (fun () ->
        let meta = Json.Obj [ ("op", Json.Str "x"); ("n", Wire.num 3) ] in
        expect_wire_error "jint missing" (fun () -> Wire.jint meta "absent");
        expect_wire_error "jstr on number" (fun () -> Wire.jstr meta "n");
        expect_wire_error "jints missing" (fun () -> Wire.jints meta "absent");
        expect_wire_error "ints missing" (fun () -> Wire.ints [] "absent");
        expect_wire_error "bits on ints" (fun () ->
            Wire.bits [ ("x", Segment.Ints [| 1 |]) ] "x"));
  ]

(* structural identity, as in test_equiv: numbering, adjacency order, labels *)
let automaton_tests =
  [
    test "random machines round-trip structurally" (fun () ->
        for seed = 1 to 8 do
          let m =
            Families.random_machine ~seed ~states:(3 + (seed mod 6))
              ~inputs:[ "a"; "b" ] ~outputs:[ "x"; "y" ]
          in
          let m' = Wire.automaton_of_json (Wire.json_of_automaton m) in
          if not (Automaton.equal m m') then Alcotest.failf "round trip differs at seed %d" seed
        done);
    test "closures round-trip with their escapes" (fun () ->
        let rng = Prng.create ~seed:3 in
        let m = ref (model_start ()) in
        for step = 0 to 10 do
          m := grow_model rng !m;
          let c = Mechaml_core.Chaos.closure !m in
          if not (Automaton.equal c (Wire.automaton_of_json (Wire.json_of_automaton c))) then
            Alcotest.failf "round trip differs at step %d" step
        done);
    test "the JSON form itself is a fixpoint of the round trip" (fun () ->
        let m =
          Families.random_context ~seed:5 ~states:7 ~legacy_inputs:[ "a" ]
            ~legacy_outputs:[ "x" ]
        in
        let j = Wire.json_of_automaton m in
        let j' = Wire.json_of_automaton (Wire.automaton_of_json j) in
        check_string "canonical JSON" (Json.to_string j) (Json.to_string j'));
    test "mangled automaton JSON raises Wire_error" (fun () ->
        expect_wire_error "empty object" (fun () ->
            Wire.automaton_of_json (Json.Obj []));
        expect_wire_error "wrong type" (fun () ->
            Wire.automaton_of_json (Json.Str "nope")));
  ]

(* The shard coordinator writes to workers that may have died; the write
   must fail with an error it can recover from, not end the process. *)
let http_tests =
  [
    test "a write to a closed peer raises instead of killing the process" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.close b;
        let c = Mechaml_wire.Http.conn a in
        Fun.protect
          ~finally:(fun () -> Mechaml_wire.Http.close c)
          (fun () ->
            match
              Mechaml_wire.Http.write_request c ~meth:"POST" ~path:"/x"
                (String.make 100_000 'x')
            with
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
            | () -> Alcotest.fail "a write to a closed peer succeeded"));
  ]

let () =
  Alcotest.run "wire"
    [ ("codec", codec_tests); ("automaton", automaton_tests); ("http", http_tests) ]
