(** First-class priority-queue handles, so the experiment drivers can
    treat every structure uniformly.

    [Of_runtime] instantiates the whole menagerie over one runtime; the
    two instances used everywhere are {!On_real} (OCaml domains) and
    {!On_sim} (the virtual-time simulator). Keys are [int], as in the
    paper's microbenchmarks. *)

type t = {
  name : string;
  insert : int -> unit;
  insert_many : int list -> unit;
      (** batched insert; the handle sorts the batch, structures without
          a native batched path degrade to element-wise [insert] *)
  extract_min : unit -> int option;
  extract_many : unit -> int list;
      (** structures without a native extract-many degrade to a singleton
          [extract_min] *)
  extract_approx : unit -> int option;
      (** probabilistic extract-min (mounds only); structures without a
          native variant degrade to the exact [extract_min] *)
  try_insert : int -> bool;
      (** one bounded insertion pass (mounds); structures without a
          native variant degrade to [insert] and always succeed *)
  insert_until : deadline:int -> int -> unit Mound.Intf.outcome;
      (** deadline-checking insert (mounds); others degrade to the
          unbounded [insert] and always report [Ok] *)
  extract_min_until : deadline:int -> int option Mound.Intf.outcome;
      (** deadline-checking extract (mounds); others degrade to
          [extract_min] *)
  size : unit -> int;
  check : unit -> bool;  (** quiescent invariant check *)
  ops : unit -> Mound.Stats.Ops.t option;
      (** dynamic progress counters, for the structures that keep them *)
}

type maker = { make : capacity:int -> t }

(* Degraded deadline/try trio for structures without native support: the
   unbounded operations under the new names, always succeeding. *)
let degraded_until ~insert ~extract_min =
  ( (fun v ->
      insert v;
      true),
    (fun ~deadline:_ v ->
      insert v;
      Mound.Intf.Ok ()),
    fun ~deadline:_ -> Mound.Intf.Ok (extract_min ()) )

module Of_runtime (R : Runtime.S) = struct
  module Lf = Mound.Lf.Make (R) (Mound.Int_ord)
  module Lock = Mound.Lock.Make (R) (Mound.Int_ord)
  module Mq = Mound.Multiqueue.Make (R) (Mound.Int_ord)
  module Hunt = Baselines.Hunt_heap.Make (R) (Mound.Int_ord)
  module Sl = Baselines.Skiplist_pq.Make (R) (Mound.Int_ord)
  module Coarse = Baselines.Coarse_heap.Make (R) (Mound.Int_ord)

  let mound_lock =
    {
      make =
        (fun ~capacity:_ ->
          let q = Lock.create () in
          {
            name = "Mound (Lock)";
            insert = Lock.insert q;
            insert_many =
              (fun b -> Lock.insert_many q (List.sort compare b));
            extract_min = (fun () -> Lock.extract_min q);
            extract_many = (fun () -> Lock.extract_many q);
            extract_approx = (fun () -> Lock.extract_approx q);
            try_insert = Lock.try_insert q;
            insert_until = (fun ~deadline v -> Lock.insert_until q ~deadline v);
            extract_min_until =
              (fun ~deadline -> Lock.extract_min_until q ~deadline);
            size = (fun () -> Lock.size q);
            check = (fun () -> Lock.check q);
            ops = (fun () -> Some (Lock.ops q));
          });
    }

  let mound_lf =
    {
      make =
        (fun ~capacity:_ ->
          let q = Lf.create () in
          {
            name = "Mound (LF)";
            insert = Lf.insert q;
            insert_many =
              (fun b -> Lf.insert_many q (List.sort compare b));
            extract_min = (fun () -> Lf.extract_min q);
            extract_many = (fun () -> Lf.extract_many q);
            extract_approx = (fun () -> Lf.extract_approx q);
            try_insert = Lf.try_insert q;
            insert_until = (fun ~deadline v -> Lf.insert_until q ~deadline v);
            extract_min_until =
              (fun ~deadline -> Lf.extract_min_until q ~deadline);
            size = (fun () -> Lf.size q);
            check = (fun () -> Lf.check q);
            ops = (fun () -> Some (Lf.ops q));
          });
    }

  (** Relaxed MultiQueue over [c·domains] try-locked sequential mounds
      (two-choice delete-min, sticky queue selection). [domains] must be
      the peak thread count the handle will see — the queue count is
      fixed at creation. The name stays ["MultiQueue"] across
      configurations so bench baselines compare across sweeps. *)
  let multiqueue ?c ?stickiness ?queues ~domains () =
    {
      make =
        (fun ~capacity:_ ->
          let q = Mq.create ?c ?stickiness ?queues ~domains () in
          {
            name = "MultiQueue";
            insert = Mq.insert q;
            insert_many = (fun b -> Mq.insert_many q (List.sort compare b));
            extract_min = (fun () -> Mq.extract_min q);
            extract_many = (fun () -> Mq.extract_many q);
            extract_approx = (fun () -> Mq.extract_approx q);
            try_insert = Mq.try_insert q;
            insert_until = (fun ~deadline v -> Mq.insert_until q ~deadline v);
            extract_min_until =
              (fun ~deadline -> Mq.extract_min_until q ~deadline);
            size = (fun () -> Mq.size q);
            check = (fun () -> Mq.check q);
            ops = (fun () -> Some (Mq.ops q));
          });
    }

  let hunt =
    {
      make =
        (fun ~capacity ->
          let q = Hunt.create ~capacity () in
          let extract_min () = Hunt.extract_min q in
          let try_insert, insert_until, extract_min_until =
            degraded_until ~insert:(Hunt.insert q) ~extract_min
          in
          {
            name = "Hunt Heap (Lock)";
            insert = Hunt.insert q;
            insert_many = List.iter (Hunt.insert q);
            extract_min;
            extract_many =
              (fun () -> match extract_min () with None -> [] | Some v -> [ v ]);
            extract_approx = extract_min;
            try_insert;
            insert_until;
            extract_min_until;
            ops = (fun () -> None);
            size = (fun () -> Hunt.size q);
            check = (fun () -> Hunt.check q);
          });
    }

  let skiplist =
    {
      make =
        (fun ~capacity:_ ->
          let q = Sl.create () in
          let extract_min () = Sl.extract_min q in
          let try_insert, insert_until, extract_min_until =
            degraded_until ~insert:(Sl.insert q) ~extract_min
          in
          {
            name = "Skip List (QC)";
            insert = Sl.insert q;
            insert_many = List.iter (Sl.insert q);
            extract_min;
            extract_many =
              (fun () -> match extract_min () with None -> [] | Some v -> [ v ]);
            extract_approx = extract_min;
            try_insert;
            insert_until;
            extract_min_until;
            ops = (fun () -> None);
            size = (fun () -> Sl.size q);
            check = (fun () -> Sl.check q);
          });
    }

  module Sl_lock = Baselines.Skiplist_lock_pq.Make (R) (Mound.Int_ord)

  let skiplist_lock =
    {
      make =
        (fun ~capacity:_ ->
          let q = Sl_lock.create () in
          let extract_min () = Sl_lock.extract_min q in
          let try_insert, insert_until, extract_min_until =
            degraded_until ~insert:(Sl_lock.insert q) ~extract_min
          in
          {
            name = "Skip List (Lock)";
            insert = Sl_lock.insert q;
            insert_many = List.iter (Sl_lock.insert q);
            extract_min;
            extract_many =
              (fun () -> match extract_min () with None -> [] | Some v -> [ v ]);
            extract_approx = extract_min;
            try_insert;
            insert_until;
            extract_min_until;
            ops = (fun () -> None);
            size = (fun () -> Sl_lock.size q);
            check = (fun () -> Sl_lock.check q);
          });
    }

  module Stm_h = Baselines.Stm_heap.Make (R)

  let stm_heap =
    {
      make =
        (fun ~capacity ->
          let q = Stm_h.create ~capacity () in
          let extract_min () = Stm_h.extract_min q in
          let try_insert, insert_until, extract_min_until =
            degraded_until ~insert:(Stm_h.insert q) ~extract_min
          in
          {
            name = "STM Heap";
            insert = Stm_h.insert q;
            insert_many = List.iter (Stm_h.insert q);
            extract_min;
            extract_many =
              (fun () -> match extract_min () with None -> [] | Some v -> [ v ]);
            extract_approx = extract_min;
            try_insert;
            insert_until;
            extract_min_until;
            ops = (fun () -> None);
            size = (fun () -> Stm_h.size q);
            check = (fun () -> Stm_h.check q);
          });
    }

  let coarse =
    {
      make =
        (fun ~capacity ->
          let q = Coarse.create ~capacity () in
          let extract_min () = Coarse.extract_min q in
          let try_insert, insert_until, extract_min_until =
            degraded_until ~insert:(Coarse.insert q) ~extract_min
          in
          {
            name = "Coarse Heap";
            insert = Coarse.insert q;
            insert_many = List.iter (Coarse.insert q);
            extract_min;
            extract_many =
              (fun () -> match extract_min () with None -> [] | Some v -> [ v ]);
            extract_approx = extract_min;
            try_insert;
            insert_until;
            extract_min_until;
            ops = (fun () -> None);
            size = (fun () -> Coarse.size q);
            check = (fun () -> Coarse.check q);
          });
    }

  (** The four structures of the paper's Fig. 2, in its legend order. *)
  let paper_set = [ mound_lock; mound_lf; hunt; skiplist ]

  (** Paper set plus the coarse-lock, STM-heap and lock-based-skiplist
      ablations. *)
  let extended_set = paper_set @ [ coarse; stm_heap; skiplist_lock ]
end

module On_real = Of_runtime (Runtime.Real)
module On_sim = Of_runtime (Sim.Runtime)
