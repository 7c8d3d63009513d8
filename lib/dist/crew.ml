(* A persistent, round-synchronized crew of domains: [round t fn] runs
   [fn w] on every member [w] at once and returns when all are done.  The
   crew outlives its rounds, so a distributed build that runs thousands of
   levels spawns its domains once. *)

type t = {
  m : Mutex.t;
  cv : Condition.t;
  size : int;
  mutable generation : int;
  mutable fn : int -> unit;
  mutable finished : int;
  mutable quit : bool;
  mutable err : exn option;
  mutable domains : unit Domain.t array;
}

let create size =
  let t =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      size;
      generation = 0;
      fn = ignore;
      finished = 0;
      quit = false;
      err = None;
      domains = [||];
    }
  in
  let worker w () =
    let seen = ref 0 in
    Mutex.lock t.m;
    while not t.quit do
      while t.generation = !seen && not t.quit do
        Condition.wait t.cv t.m
      done;
      if not t.quit then begin
        seen := t.generation;
        let fn = t.fn in
        Mutex.unlock t.m;
        let r = try Ok (fn w) with e -> Error e in
        Mutex.lock t.m;
        (match r with
        | Ok () -> ()
        | Error e -> if t.err = None then t.err <- Some e);
        t.finished <- t.finished + 1;
        Condition.broadcast t.cv
      end
    done;
    Mutex.unlock t.m
  in
  t.domains <- Array.init size (fun w -> Domain.spawn (worker w));
  t

let round t fn =
  Mutex.lock t.m;
  t.fn <- fn;
  t.finished <- 0;
  t.err <- None;
  t.generation <- t.generation + 1;
  Condition.broadcast t.cv;
  while t.finished < t.size do
    Condition.wait t.cv t.m
  done;
  let err = t.err in
  Mutex.unlock t.m;
  match err with None -> () | Some e -> raise e

let stop t =
  Mutex.lock t.m;
  t.quit <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  Array.iter Domain.join t.domains
