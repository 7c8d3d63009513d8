(* Host normalization.  The benchmark host may run identical CPU work at
   different speeds from one moment to the next (a shared virtual CPU), so
   every timed sample is bracketed by a fixed reference kernel and rescaled
   to what it would have cost on a host where the kernel takes exactly
   [nominal_s]. *)

(* The kernel's typical duration on a 2-vCPU x86-64 VM; a normalized second
   is therefore close to a wall-clock second on that machine. *)
let nominal_s = 0.001

(* The kernel has two phases of about half a millisecond each: register
   arithmetic, and random read-modify-writes into a fixed buffer.  On a
   shared host the speed of memory-bound code drifts more than that of
   arithmetic; jobs mix both, and normalizing by the sum of the two phases
   steadied job medians better than either phase alone. *)
let compute_iterations = 125_000

let memory_iterations = 35_000

(* The memory phase's working set: 2 MiB outside the OCaml heap, allocated
   once. *)
let buffer_bits = 18

let buffer =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl buffer_bits) in
  Bigarray.Array1.fill b 0;
  b

let sink = ref 0

(* A xorshift sequence in one unboxed register. *)
let compute n =
  let x = ref 0x2545F4914F6CDD1D in
  for _ = 1 to n do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  sink := Sys.opaque_identity !x

(* The same sequence driving one read-modify-write per step at a random
   slot of the buffer. *)
let touch n =
  let buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t = buffer in
  let mask = (1 lsl buffer_bits) - 1 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to n do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let i = v land mask in
    acc := !acc + Bigarray.Array1.unsafe_get buf i;
    Bigarray.Array1.unsafe_set buf i !acc
  done;
  sink := Sys.opaque_identity !acc

(* Neither phase allocates or runs code of the program under test, so
   nothing the program does can change the kernel's cost. *)
let kernel () =
  compute compute_iterations;
  touch memory_iterations

let scale ~before ~after = nominal_s /. ((before +. after) /. 2.)

let normalize ~raw ~before ~after = raw *. scale ~before ~after

(* -- background-activity guard ---------------------------------------------

   A kernel window only measures the host if the program is idle during it.
   Work the program still does in the background (a worker domain, a child
   process) would both slow the kernel and hide cost from the sample, so
   every window records the CPU time spent by this process beyond the
   kernel's own wall time, plus the CPU time of the program's child
   processes. *)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* utime + stime of another process, from /proc/<pid>/stat (fields 14/15,
   counted after the parenthesised command name), in seconds. *)
let cpu_of_pid pid =
  let ticks_per_s = 100. in
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s -> (
    match String.rindex_opt s ')' with
    | None -> 0.
    | Some i -> (
      let fields =
        String.sub s (i + 2) (String.length s - i - 2) |> String.split_on_char ' '
      in
      (* after ')' the first field is field 3 (state) *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some st -> (
        match (float_of_string_opt u, float_of_string_opt st) with
        | Some u, Some st -> (u +. st) /. ticks_per_s
        | _ -> 0.)
      | _ -> 0.))

type guard = {
  mutable children : int list;
  mutable windows : int;
  mutable wall : float;  (** summed kernel wall time *)
  mutable background : float;  (** summed CPU time not spent in the kernel *)
  mutable kernel_raw : float list;  (** raw kernel times, newest first *)
}

let guard () = { children = []; windows = 0; wall = 0.; background = 0.; kernel_raw = [] }

let watch g pid = g.children <- pid :: g.children

let unwatch g pid = g.children <- List.filter (( <> ) pid) g.children

let children_cpu g = List.fold_left (fun acc p -> acc +. cpu_of_pid p) 0. g.children

(* Touch every slot of the buffer in order, bringing it back into cache. *)
let warm () =
  let buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t = buffer in
  let acc = ref 0 in
  for i = 0 to Bigarray.Array1.dim buf - 1 do
    acc := !acc + Bigarray.Array1.unsafe_get buf i
  done;
  sink := Sys.opaque_identity !acc

(* One kernel run; returns its wall time.  An untimed sweep first brings
   the buffer back into cache, so that what the program did to the caches
   before the window does not change the kernel's cost. *)
let window g =
  warm ();
  let k0 = children_cpu g in
  let c0 = cpu_self () in
  let t0 = Unix.gettimeofday () in
  kernel ();
  let t1 = Unix.gettimeofday () in
  let c1 = cpu_self () in
  let k1 = children_cpu g in
  let wall = t1 -. t0 in
  g.windows <- g.windows + 1;
  g.wall <- g.wall +. wall;
  g.background <- g.background +. Float.max 0. (c1 -. c0 -. wall) +. (k1 -. k0);
  g.kernel_raw <- wall :: g.kernel_raw;
  wall

let bg_cpu_frac g = if g.wall > 0. then g.background /. g.wall else 0.

(* Above this share the kernel windows no longer measure an idle program. *)
let bg_limit = 0.10

let valid g = bg_cpu_frac g <= bg_limit

type sample = {
  raw : float;  (** wall seconds *)
  norm : float;  (** normalized seconds *)
  ref_s : float;  (** mean raw kernel time around the sample *)
}

let measure g f =
  let before = window g in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let raw = Unix.gettimeofday () -. t0 in
  let after = window g in
  (r, { raw; norm = normalize ~raw ~before ~after; ref_s = (before +. after) /. 2. })
