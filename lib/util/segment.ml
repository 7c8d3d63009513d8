type field =
  | Ints of int array
  | Bits of Bitvec.t

type payload = (string * field) list

exception Spill_error of string

(* Budget accounting: OCaml heap words, not serialized bytes — the watermark
   guards resident memory. *)
let field_bytes = function
  | Ints a -> 8 * (Array.length a + 1)
  | Bits v -> 8 * (((Bitvec.length v + 62) / 63) + 3)

let payload_bytes p = List.fold_left (fun acc (_, f) -> acc + field_bytes f) 0 p

(* -- spill-file codec ------------------------------------------------------

   One header line ["mechaseg <version> <payload length> <md5 hex>\n"]
   followed by the marshalled payload.  Everything after the header is
   digest-checked, so a flipped bit or a truncated tail surfaces as an
   explicit error instead of wrong fixpoint bits. *)

let version = 1

(* The header line and the body of a payload's frame. *)
let frame p =
  let body = Marshal.to_string (p : payload) [] in
  let digest = Digest.to_hex (Digest.string body) in
  (Printf.sprintf "mechaseg %d %d %s\n" version (String.length body) digest, body)

let to_string p =
  let header, body = frame p in
  header ^ body

(* [of_string] is the whole-buffer twin of [load]: the same header, length
   and digest checks, against an in-memory segment (a spill file slurped
   whole, or a segment payload received over the wire). *)
let of_string ?(what = "segment") s =
  match String.index_opt s '\n' with
  | None -> Error (what ^ ": not a mechaseg segment")
  | Some nl -> (
    let header = String.sub s 0 nl in
    match String.split_on_char ' ' header with
    | [ "mechaseg"; v; len; digest ] -> (
      match (int_of_string_opt v, int_of_string_opt len) with
      | Some v, _ when v <> version ->
        Error (Printf.sprintf "%s: segment version %d, expected %d" what v version)
      | Some _, Some len when len >= 0 ->
        let ofs = nl + 1 in
        if String.length s - ofs < len then Error (what ^ ": truncated segment")
        else if Digest.to_hex (Digest.substring s ofs len) <> digest then
          Error (what ^ ": segment digest mismatch (corrupt payload)")
        else (
          (* decoded in place: the marshalled value must lie inside the
             declared body, not run on into trailing bytes *)
          try
            if Marshal.total_size (Bytes.unsafe_of_string s) ofs > len then
              Error (what ^ ": marshalled body overruns the declared length")
            else Ok (Marshal.from_string s ofs : payload)
          with Failure m | Invalid_argument m -> Error (Printf.sprintf "%s: %s" what m))
      | _ -> Error (what ^ ": malformed segment header"))
    | _ -> Error (what ^ ": not a mechaseg segment"))

let save ~path p =
  let header, body = frame p in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc header;
     output_string oc body;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load ~path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match In_channel.input_all ic with
        | exception Sys_error m -> Error (path ^ ": " ^ m)
        | "" -> Error (path ^ ": empty spill file")
        | s -> of_string ~what:path s)

(* -- residency manager ----------------------------------------------------- *)

let g_spills = Atomic.make 0

let g_reloads = Atomic.make 0

let total_spills () = Atomic.get g_spills

let total_reloads () = Atomic.get g_reloads

type slot = {
  s_name : string;
  s_bytes : int;
  mutable s_payload : payload option; (* [None] once evicted *)
  mutable s_path : string option; (* spill file, once written *)
  mutable s_tick : int;
}

type t = {
  budget : int option;
  base_dir : string;
  name : string;
  on_spill : int -> unit;
  on_reload : int -> unit;
  mutable dir : string option; (* private subdir, created on first use *)
  mutable slots : slot list; (* registration order; LRU decided by ticks *)
  mutable tick : int;
  mutable resident : int;
  mutable n_spills : int;
  mutable n_reloads : int;
  mutable scratch : int;
  mutable closed : bool;
}

let uid = Atomic.make 0

let create ?budget ?dir ?(on_spill = ignore) ?(on_reload = ignore) ~name () =
  {
    budget;
    base_dir = (match dir with Some d -> d | None -> Filename.get_temp_dir_name ());
    name;
    on_spill;
    on_reload;
    dir = None;
    slots = [];
    tick = 0;
    resident = 0;
    n_spills = 0;
    n_reloads = 0;
    scratch = 0;
    closed = false;
  }

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure_dir t =
  match t.dir with
  | Some d -> d
  | None ->
    if t.closed then raise (Spill_error (t.name ^ ": segment manager is closed"));
    (* pid + process-wide uid keep concurrent daemons and repeated runs in
       the same temp dir from colliding *)
    let d =
      Filename.concat t.base_dir
        (Printf.sprintf "mechaspill-%s-%d-%d" t.name (Unix.getpid ())
           (Atomic.fetch_and_add uid 1))
    in
    mkdir_p d;
    t.dir <- Some d;
    d

let scratch_path t ~name =
  let d = ensure_dir t in
  t.scratch <- t.scratch + 1;
  Filename.concat d (Printf.sprintf "scratch-%d-%s.seg" t.scratch name)

let touch t s =
  t.tick <- t.tick + 1;
  s.s_tick <- t.tick

let evict t s =
  match s.s_payload with
  | None -> ()
  | Some p ->
    (match s.s_path with
    | Some _ -> () (* immutable payload: the file written earlier is current *)
    | None ->
      let path = Filename.concat (ensure_dir t) (s.s_name ^ ".seg") in
      save ~path p;
      s.s_path <- Some path);
    s.s_payload <- None;
    t.resident <- t.resident - s.s_bytes;
    t.n_spills <- t.n_spills + 1;
    Atomic.incr g_spills;
    t.on_spill s.s_bytes

(* Evict least-recently-used resident slots (never [keep]) until the
   watermark holds or nothing colder is left. *)
let enforce_budget t ~keep =
  match t.budget with
  | None -> ()
  | Some budget ->
    let continue_ = ref (not t.closed) in
    while t.resident > budget && !continue_ do
      let coldest =
        List.fold_left
          (fun acc s ->
            match (s.s_payload, acc) with
            | None, _ -> acc
            | Some _, _ when s == keep -> acc
            | Some _, None -> Some s
            | Some _, Some best -> if s.s_tick < best.s_tick then Some s else acc)
          None t.slots
      in
      match coldest with None -> continue_ := false | Some s -> evict t s
    done;
    (* over budget with everything else cold: the current slot itself goes *)
    if t.resident > budget && not t.closed then evict t keep

let add t ~name p =
  let s =
    { s_name = name; s_bytes = payload_bytes p; s_payload = Some p; s_path = None; s_tick = 0 }
  in
  touch t s;
  t.slots <- s :: t.slots;
  t.resident <- t.resident + s.s_bytes;
  enforce_budget t ~keep:s;
  s

let get t s =
  touch t s;
  match s.s_payload with
  | Some p -> p
  | None ->
    let path =
      match s.s_path with
      | Some p -> p
      | None -> raise (Spill_error (s.s_name ^ ": evicted segment has no spill file"))
    in
    (match load ~path with
    | Error m -> raise (Spill_error m)
    | Ok p ->
      s.s_payload <- Some p;
      t.resident <- t.resident + s.s_bytes;
      t.n_reloads <- t.n_reloads + 1;
      Atomic.incr g_reloads;
      t.on_reload s.s_bytes;
      enforce_budget t ~keep:s;
      p)

let resident_bytes t = t.resident

let spills t = t.n_spills

let reloads t = t.n_reloads

let spill_dir t = t.dir

let close t =
  t.closed <- true;
  List.iter
    (fun s ->
      match s.s_path with
      | None -> ()
      | Some p ->
        (try Sys.remove p with Sys_error _ -> ());
        s.s_path <- None)
    t.slots;
  match t.dir with
  | None -> ()
  | Some d ->
    (* only our private directory: remove whatever scratch remains, then
       the directory itself *)
    (match Sys.readdir d with
    | files -> Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ()) files
    | exception Sys_error _ -> ());
    (try Unix.rmdir d with Unix.Unix_error _ | Sys_error _ -> ());
    t.dir <- None
