type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 16 0; n = 0 }

(* Room for [extra] more elements, doubling the capacity until they fit:
   the same capacities a push at a time reaches.  Out of line, so the
   fast path of [push] stays a compare and a store. *)
let[@inline never] reserve v extra =
  let need = v.n + extra in
  if need > Array.length v.a then begin
    let cap = ref (Array.length v.a) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let b = Array.make !cap 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end

let[@inline] push v x =
  if v.n = Array.length v.a then reserve v 1;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

let append v (xs : int array) =
  let len = Array.length xs in
  reserve v len;
  Array.blit xs 0 v.a v.n len;
  v.n <- v.n + len

let get v i = Array.unsafe_get v.a i

let length v = v.n

let to_array v = Array.sub v.a 0 v.n

let clear v = v.n <- 0

let reset v =
  v.a <- Array.make 16 0;
  v.n <- 0

let capacity_bytes v = 8 * Array.length v.a
