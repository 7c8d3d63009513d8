(* The open-addressing interning table against Hashtbl: the same bindings,
   first-id-wins on repeated keys, and consistent size and iteration across
   resizes. *)

module Itbl = Mechaml_util.Itbl
open Helpers

let bindings t =
  let acc = ref [] in
  Itbl.iter (fun k v -> acc := (k, v) :: !acc) t;
  List.sort compare !acc

let reference_bindings h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

(* Interns [keys] in order, handing out ids in first-seen order the way the
   sharded explorer does; fails on the first disagreement with Hashtbl. *)
let intern_agrees ?(size = 0) keys =
  let t = Itbl.create size and h = Hashtbl.create 16 in
  List.for_all
    (fun key ->
      let fresh = Hashtbl.length h in
      let expect =
        match Hashtbl.find_opt h key with
        | Some v -> v
        | None ->
          Hashtbl.add h key fresh;
          fresh
      in
      Itbl.find_or_add t key fresh = expect && Itbl.length t = Hashtbl.length h)
    keys
  && bindings t = reference_bindings h

(* Mostly small keys, so streams repeat themselves; some anywhere in the
   non-negative range, so probes collide and wrap. *)
let key_gen =
  QCheck.Gen.(
    frequency [ (3, int_bound 300); (1, map (fun x -> x land max_int) int) ])

let stream_gen = QCheck.Gen.(list_size (int_range 0 3000) key_gen)

let stream = QCheck.make ~print:QCheck.Print.(list int) stream_gen

let property_tests =
  [
    qcheck ~count:300 "interning agrees with Hashtbl across resizes" stream intern_agrees;
    qcheck ~count:100 "a presized table agrees too"
      QCheck.(pair (int_bound 5000) stream)
      (fun (size, keys) -> intern_agrees ~size keys);
  ]

let unit_tests =
  [
    test "an existing key keeps its first value" (fun () ->
        let t = Itbl.create 0 in
        check_int "fresh" 7 (Itbl.find_or_add t 42 7);
        check_int "repeat" 7 (Itbl.find_or_add t 42 9);
        check_int "size" 1 (Itbl.length t));
    test "ten thousand keys through every resize" (fun () ->
        let t = Itbl.create 0 in
        for i = 0 to 9999 do
          check_int "insert" i (Itbl.find_or_add t (i * 7919) i)
        done;
        check_int "size" 10000 (Itbl.length t);
        for i = 0 to 9999 do
          if Itbl.find_or_add t (i * 7919) (-1) <> i then Alcotest.failf "lost key %d" i
        done;
        check_int "no growth on lookups" 10000 (Itbl.length t));
    test "key 0 and max_int are ordinary keys" (fun () ->
        let t = Itbl.create 0 in
        check_int "zero" 1 (Itbl.find_or_add t 0 1);
        check_int "max" 2 (Itbl.find_or_add t max_int 2);
        Alcotest.(check (list (pair int int))) "bindings" [ (0, 1); (max_int, 2) ] (bindings t));
    test "negative keys are rejected" (fun () ->
        let t = Itbl.create 0 in
        (match Itbl.find_or_add t (-1) 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
        check_int "nothing bound" 0 (Itbl.length t));
    test "reset empties the table" (fun () ->
        let t = Itbl.create 100 in
        for i = 0 to 99 do
          ignore (Itbl.find_or_add t i i)
        done;
        Itbl.reset t;
        check_int "size" 0 (Itbl.length t);
        check_int "rebound afresh" 3 (Itbl.find_or_add t 5 3));
    test "mix is non-negative" (fun () ->
        List.iter
          (fun k -> check_bool "non-negative" true (Itbl.mix k >= 0))
          [ 0; 1; 2; max_int; min_int; -1; 0x1E3779B97F4A7C15 ]);
  ]

let () = Alcotest.run "itbl" [ ("unit", unit_tests); ("properties", property_tests) ]
