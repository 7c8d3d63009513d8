type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 16 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let append v (xs : int array) = Array.iter (fun x -> push v x) xs

let get v i = Array.unsafe_get v.a i

let length v = v.n

let to_array v = Array.sub v.a 0 v.n

let clear v = v.n <- 0

let reset v =
  v.a <- Array.make 16 0;
  v.n <- 0

let capacity_bytes v = 8 * Array.length v.a
