(* Tests for the out-of-core segment tier: the spill-file codec (round-trip,
   damage detection) and the LRU residency manager (budget enforcement,
   reload-on-demand, cleanup). *)

module Bitvec = Mechaml_util.Bitvec
module Segment = Mechaml_util.Segment
open Helpers

let tmpdir () = Filename.temp_file "mechaseg-test" "" |> fun f ->
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let payload n : Segment.payload =
  [
    ("ints", Segment.Ints (Array.init n (fun i -> (i * 7) - 3)));
    ("bits", Segment.Bits (Bitvec.init n (fun i -> i mod 3 = 0)));
  ]

let payload_equal (a : Segment.payload) (b : Segment.payload) =
  List.length a = List.length b
  && List.for_all2
       (fun (na, fa) (nb, fb) ->
         na = nb
         &&
         match (fa, fb) with
         | Segment.Ints x, Segment.Ints y -> x = y
         | Segment.Bits x, Segment.Bits y -> Bitvec.equal x y
         | _ -> false)
       a b

let codec_tests =
  [
    test "save/load round-trips ints and bit vectors" (fun () ->
        let dir = tmpdir () in
        let path = Filename.concat dir "p.seg" in
        let p = payload 200 in
        Segment.save ~path p;
        (match Segment.load ~path with
        | Ok q -> check_bool "payload equal" true (payload_equal p q)
        | Error m -> Alcotest.fail m);
        Sys.remove path;
        Unix.rmdir dir);
    test "truncated spill file surfaces Error, never wrong data" (fun () ->
        let dir = tmpdir () in
        let path = Filename.concat dir "p.seg" in
        Segment.save ~path (payload 500);
        let full = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 (String.length full - 17)));
        (match Segment.load ~path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected Error on truncated file");
        Sys.remove path;
        Unix.rmdir dir);
    test "corrupt byte surfaces Error via the digest" (fun () ->
        let dir = tmpdir () in
        let path = Filename.concat dir "p.seg" in
        Segment.save ~path (payload 500);
        let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        let i = Bytes.length full - 40 in
        Bytes.set full i (Char.chr (Char.code (Bytes.get full i) lxor 0x20));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc full);
        (match Segment.load ~path with
        | Error m ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          check_bool "mentions digest" true (contains m "digest")
        | Ok _ -> Alcotest.fail "expected Error on corrupt file");
        Sys.remove path;
        Unix.rmdir dir);
    test "wrong magic and missing file are Errors" (fun () ->
        let dir = tmpdir () in
        let path = Filename.concat dir "p.seg" in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a segment\n");
        (match Segment.load ~path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected Error on foreign file");
        (match Segment.load ~path:(Filename.concat dir "absent.seg") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected Error on missing file");
        Sys.remove path;
        Unix.rmdir dir);
    test "a digest-true frame with a short marshalled body is an Error" (fun () ->
        (* the digest only proves the sender's bytes arrived intact: a frame
           whose body is not a whole marshalled value must still decode to
           Error, not raise *)
        let frame body =
          Printf.sprintf "mechaseg 1 %d %s\n%s" (String.length body)
            (Digest.to_hex (Digest.string body))
            body
        in
        let good = Marshal.to_string ([ ("a", Segment.Ints [| 1; 2 |]) ] : Segment.payload) [] in
        List.iter
          (fun body ->
            match Segment.of_string (frame body) with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "expected Error on a short body"
            | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e))
          [ ""; "abc"; String.sub good 0 (String.length good - 3) ];
        check_bool "the whole body decodes" true (Result.is_ok (Segment.of_string (frame good))));
  ]

let manager_tests =
  [
    test "no budget: nothing ever spills" (fun () ->
        let m = Segment.create ~name:"t" () in
        let s1 = Segment.add m ~name:"a" (payload 1000) in
        let s2 = Segment.add m ~name:"b" (payload 1000) in
        check_bool "a resident" true (payload_equal (payload 1000) (Segment.get m s1));
        check_bool "b resident" true (payload_equal (payload 1000) (Segment.get m s2));
        check_int "spills" 0 (Segment.spills m);
        check_bool "no dir created" true (Segment.spill_dir m = None);
        Segment.close m);
    test "budget evicts LRU and reloads on demand" (fun () ->
        let dir = tmpdir () in
        let bytes = Segment.payload_bytes (payload 1000) in
        let m = Segment.create ~budget:(2 * bytes) ~dir ~name:"t" () in
        let s1 = Segment.add m ~name:"a" (payload 1000) in
        let s2 = Segment.add m ~name:"b" (payload 1000) in
        let s3 = Segment.add m ~name:"c" (payload 1000) in
        (* a was coldest: adding c pushed it out *)
        check_int "one spill" 1 (Segment.spills m);
        check_bool "resident under budget" true (Segment.resident_bytes m <= 2 * bytes);
        check_bool "a reloads" true (payload_equal (payload 1000) (Segment.get m s1));
        check_int "one reload" 1 (Segment.reloads m);
        (* reloading a pushed out the new coldest (b) *)
        check_int "second spill" 2 (Segment.spills m);
        check_bool "b reloads" true (payload_equal (payload 1000) (Segment.get m s2));
        check_bool "c reloads" true (payload_equal (payload 1000) (Segment.get m s3));
        Segment.close m;
        check_bool "spill files removed" true (Sys.readdir dir = [||]);
        Unix.rmdir dir);
    test "borrowed payload stays valid across its own eviction" (fun () ->
        let dir = tmpdir () in
        let bytes = Segment.payload_bytes (payload 1000) in
        let m = Segment.create ~budget:bytes ~dir ~name:"t" () in
        let s1 = Segment.add m ~name:"a" (payload 1000) in
        let borrowed = Segment.get m s1 in
        ignore (Segment.add m ~name:"b" (payload 1000));
        (* a is spilled now; the borrowed copy must still read correctly *)
        check_bool "borrowed intact" true (payload_equal (payload 1000) borrowed);
        Segment.close m;
        Unix.rmdir dir);
    test "get raises Spill_error when the spill file is damaged" (fun () ->
        let dir = tmpdir () in
        let bytes = Segment.payload_bytes (payload 1000) in
        let m = Segment.create ~budget:bytes ~dir ~name:"t" () in
        let s1 = Segment.add m ~name:"a" (payload 1000) in
        ignore (Segment.add m ~name:"b" (payload 1000));
        (* damage a's spill file in place *)
        let d = match Segment.spill_dir m with Some d -> d | None -> Alcotest.fail "no dir" in
        let f = Filename.concat d "a.seg" in
        let full = Bytes.of_string (In_channel.with_open_bin f In_channel.input_all) in
        Bytes.set full (Bytes.length full - 1) '\x00';
        Out_channel.with_open_bin f (fun oc -> Out_channel.output_bytes oc full);
        (match Segment.get m s1 with
        | exception Segment.Spill_error _ -> ()
        | _ -> Alcotest.fail "expected Spill_error");
        Segment.close m;
        Unix.rmdir dir);
    test "spill callbacks and global totals observe transfers" (fun () ->
        let dir = tmpdir () in
        let spilled = ref 0 and reloaded = ref 0 in
        let bytes = Segment.payload_bytes (payload 1000) in
        let g0 = Segment.total_spills () in
        let m =
          Segment.create ~budget:bytes ~dir
            ~on_spill:(fun b -> spilled := !spilled + b)
            ~on_reload:(fun b -> reloaded := !reloaded + b)
            ~name:"t" ()
        in
        let s1 = Segment.add m ~name:"a" (payload 1000) in
        ignore (Segment.add m ~name:"b" (payload 1000));
        ignore (Segment.get m s1);
        check_bool "spill bytes observed" true (!spilled >= bytes);
        check_bool "reload bytes observed" true (!reloaded >= bytes);
        check_bool "global total advanced" true (Segment.total_spills () > g0);
        Segment.close m;
        Unix.rmdir dir);
    test "close is idempotent and removes scratch files" (fun () ->
        let dir = tmpdir () in
        let m = Segment.create ~budget:1 ~dir ~name:"t" () in
        let p = Segment.scratch_path m ~name:"chunk" in
        Segment.save ~path:p (payload 10);
        ignore (Segment.add m ~name:"a" (payload 100));
        Segment.close m;
        Segment.close m;
        check_bool "dir emptied" true (Sys.readdir dir = [||]);
        Unix.rmdir dir);
  ]

let () = Alcotest.run "segment" [ ("codec", codec_tests); ("manager", manager_tests) ]
