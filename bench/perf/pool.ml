(* One persistent worker domain beside the main one: 2 domains, which is
   what this benchmark's host has cores for. Spawning once per run (not
   per trial) keeps domain start-up and minor-heap allocation out of
   every trial, and the worker sleeps on a condition variable while the
   1-domain cells run, so it takes no core from them.

   Both domains pin their minor heap to [minor_words] in-process: a
   spawned domain starts with the default 256k-word heap whatever the
   main domain set, and with it 2-domain cells measure stop-the-world
   minor-GC rendezvous instead of the queue. *)

let minor_words = 8 * 1024 * 1024

let pin_minor_heap () =
  if (Gc.get ()).minor_heap_size <> minor_words then
    Gc.set { (Gc.get ()) with minor_heap_size = minor_words };
  (Gc.get ()).minor_heap_size

type t = {
  m : Mutex.t;
  c : Condition.t;
  mutable job : (unit -> unit) option;
  mutable running : bool;
  mutable failure : exn option;
  mutable quit : bool;
  mutable worker_minor_words : int;
  mutable dom : unit Domain.t option;
}

let rec serve p =
  Mutex.lock p.m;
  while p.job = None && not p.quit do
    Condition.wait p.c p.m
  done;
  match p.job with
  | None -> Mutex.unlock p.m
  | Some f ->
      p.job <- None;
      Mutex.unlock p.m;
      let failure = match f () with () -> None | exception e -> Some e in
      Mutex.lock p.m;
      p.failure <- failure;
      p.running <- false;
      Condition.broadcast p.c;
      Mutex.unlock p.m;
      serve p

let create () =
  let p =
    {
      m = Mutex.create ();
      c = Condition.create ();
      job = None;
      running = false;
      failure = None;
      quit = false;
      worker_minor_words = 0;
      dom = None;
    }
  in
  let ready = Atomic.make false in
  p.dom <-
    Some
      (Domain.spawn (fun () ->
           p.worker_minor_words <- pin_minor_heap ();
           Atomic.set ready true;
           serve p));
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  p

(* [both p f] runs [f 1] on the worker and [f 0] on the calling domain
   and returns once both have finished, re-raising a worker exception. *)
let both p f =
  Mutex.lock p.m;
  p.job <- Some (fun () -> f 1);
  p.running <- true;
  Condition.broadcast p.c;
  Mutex.unlock p.m;
  let mine = match f 0 with () -> None | exception e -> Some e in
  Mutex.lock p.m;
  while p.running do
    Condition.wait p.c p.m
  done;
  let theirs = p.failure in
  Mutex.unlock p.m;
  match (mine, theirs) with
  | Some e, _ | None, Some e -> raise e
  | None, None -> ()

let run p ~domains f = if domains = 1 then f 0 else both p f

let shutdown p =
  Mutex.lock p.m;
  p.quit <- true;
  Condition.broadcast p.c;
  Mutex.unlock p.m;
  Option.iter Domain.join p.dom;
  p.dom <- None

(* Start line for a timed region: every domain arrives, then all leave
   together, so the op windows begin within a few hundred ns. *)
let barrier n =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done
