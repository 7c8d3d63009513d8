(* Keys are non-negative, so -1 marks an empty slot.  The table doubles once
   it is half full: linear probing stays short at that load. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;
  mutable size : int;
}

let mix key =
  let h = key * 0x1E3779B97F4A7C15 in
  let h = h lxor (h lsr 31) in
  let h = h * 0x3F58476D1CE4E5B9 in
  let h = h lxor (h lsr 27) in
  h land max_int

let min_capacity = 16

let capacity_for n =
  let c = ref min_capacity in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

let create n =
  let c = capacity_for n in
  { keys = Array.make c (-1); vals = Array.make c 0; mask = c - 1; size = 0 }

(* The slot holding [key], or the empty slot where it belongs. *)
let slot keys mask key =
  let i = ref (mix key land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k >= 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i

let grow t =
  let keys = t.keys and vals = t.vals in
  let c = 2 * Array.length keys in
  let nkeys = Array.make c (-1) and nvals = Array.make c 0 in
  let mask = c - 1 in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then begin
      let j = slot nkeys mask k in
      Array.unsafe_set nkeys j k;
      Array.unsafe_set nvals j (Array.unsafe_get vals i)
    end
  done;
  t.keys <- nkeys;
  t.vals <- nvals;
  t.mask <- mask

let find_or_add t key v =
  if key < 0 then invalid_arg "Itbl.find_or_add: negative key";
  let i = slot t.keys t.mask key in
  if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i
  else begin
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t;
    v
  end

let length t = t.size

let iter f t =
  Array.iteri (fun i k -> if k >= 0 then f k (Array.unsafe_get t.vals i)) t.keys

let reset t =
  t.keys <- Array.make min_capacity (-1);
  t.vals <- Array.make min_capacity 0;
  t.mask <- min_capacity - 1;
  t.size <- 0
