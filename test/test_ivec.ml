(* The growable int vector against a list model: every operation sequence
   leaves the same elements, and the capacity grows as a push at a time
   would grow it, whether the elements came by [push] or [append]. *)

module Ivec = Mechaml_util.Ivec
open Helpers

type op =
  | Push of int
  | Append of int array
  | Clear
  | Reset

let show = function
  | Push x -> Printf.sprintf "push %d" x
  | Append xs -> Printf.sprintf "append <%d>" (Array.length xs)
  | Clear -> "clear"
  | Reset -> "reset"

(* Appends from empty to several times the initial capacity of 16, so
   one append may need more than one doubling. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun x -> Push x) int);
        (3, map (fun xs -> Append (Array.of_list xs)) (list_size (int_range 0 80) int));
        (1, return Clear);
        (1, return Reset);
      ])

let ops = QCheck.make ~print:QCheck.Print.(list show) QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* The capacity [n] pushes reach from 16: the least 16 * 2^k >= n. *)
let pushed_capacity n =
  let c = ref 16 in
  while !c < n do
    c := 2 * !c
  done;
  !c

(* Runs [ops] on a vector and on a reversed list model; after every step
   the length, [get] at every index and [to_array] must agree, and the
   capacity must be one a push at a time reaches. *)
let agrees ops =
  let v = Ivec.create () in
  let model = ref [] and cap = ref 16 in
  List.for_all
    (fun op ->
      (match op with
      | Push x ->
        Ivec.push v x;
        model := x :: !model
      | Append xs ->
        Ivec.append v xs;
        model := List.rev_append (Array.to_list xs) !model
      | Clear ->
        Ivec.clear v;
        model := []
      | Reset ->
        Ivec.reset v;
        model := [];
        cap := 16);
      let expect = Array.of_list (List.rev !model) in
      let n = Array.length expect in
      cap := max !cap (pushed_capacity n);
      Ivec.length v = n
      && Ivec.to_array v = expect
      && Array.for_all Fun.id (Array.init n (fun i -> Ivec.get v i = expect.(i)))
      && Ivec.capacity_bytes v = 8 * !cap)
    ops

let unit_tests =
  [
    test "empty appends change nothing" (fun () ->
        let v = Ivec.create () in
        Ivec.append v [||];
        check_int "length" 0 (Ivec.length v);
        Ivec.push v 7;
        Ivec.append v [||];
        Alcotest.(check (array int)) "elements" [| 7 |] (Ivec.to_array v);
        check_int "capacity" (8 * 16) (Ivec.capacity_bytes v));
    test "an append past the capacity doubles until it fits" (fun () ->
        let v = Ivec.create () in
        Ivec.push v (-1);
        let xs = Array.init 100 Fun.id in
        Ivec.append v xs;
        Alcotest.(check (array int)) "elements" (Array.append [| -1 |] xs) (Ivec.to_array v);
        check_int "capacity" (8 * 128) (Ivec.capacity_bytes v));
    test "growth across many doublings keeps every element" (fun () ->
        let v = Ivec.create () and w = Ivec.create () in
        let n = 300_000 in
        for i = 0 to n - 1 do
          Ivec.push v (i * 3)
        done;
        Ivec.append w (Array.init n (fun i -> i * 3));
        check_int "length" n (Ivec.length v);
        check_bool "pushed elements" true (Ivec.to_array v = Array.init n (fun i -> i * 3));
        check_bool "appended = pushed" true (Ivec.to_array w = Ivec.to_array v);
        check_int "same capacity" (Ivec.capacity_bytes v) (Ivec.capacity_bytes w);
        check_int "least power of two" (8 * pushed_capacity n) (Ivec.capacity_bytes v));
    test "clear keeps the capacity, reset releases it" (fun () ->
        let v = Ivec.create () in
        Ivec.append v (Array.make 40 1);
        Ivec.clear v;
        check_int "cleared length" 0 (Ivec.length v);
        check_int "kept capacity" (8 * 64) (Ivec.capacity_bytes v);
        Ivec.reset v;
        check_int "released capacity" (8 * 16) (Ivec.capacity_bytes v);
        Ivec.push v 5;
        Alcotest.(check (array int)) "usable after reset" [| 5 |] (Ivec.to_array v));
  ]

let () =
  Alcotest.run "ivec"
    [ ("unit", unit_tests); ("model", [ qcheck ~count:500 "push/append/clear/reset = list model" ops agrees ]) ]
