(* In-memory spans recorded by the benchmark around its calls into the
   program, with self-time attribution and a Chrome trace_event export. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  job : int;  (** the job or request the span belongs to *)
  start : float;
  stop : float;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;  (** finished spans, newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable job : int;
}

let create () = { enabled = false; spans = []; stack = []; next = 0; job = 0 }

let set_job t j = t.job <- j

let add t ~name ~start ~stop =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; job = t.job; start; stop } :: t.spans

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; parent; name; job = t.job; start; stop = Unix.gettimeofday () } :: t.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.spans

let clear t =
  t.spans <- [];
  t.stack <- []

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it covered by
   its direct children. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.start, s.stop)) spans;
  List.map
    (fun s ->
      let covered = union_length ~lo:s.start ~hi:s.stop (Hashtbl.find_all kids s.id) in
      (s, s.stop -. s.start -. covered))
    spans

(* Summed self time per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.add tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace_event JSON: one complete ("X") event per span, timestamps in
   microseconds from the first span; the job id is the thread track. *)
let to_chrome spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}"
           (json_string s.name)
           ((s.start -. t0) *. 1e6)
           ((s.stop -. s.start) *. 1e6)
           s.job s.id s.parent s.job))
    spans;
  Buffer.add_string b "]\n";
  Buffer.contents b
