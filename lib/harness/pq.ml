(** First-class priority-queue handles; see [pq.mli]. *)

type t = {
  insert : int -> unit;
  insert_many : int list -> unit;
  extract_min : unit -> int option;
  extract_many : unit -> int list;
  extract_approx : ?max_level:int -> unit -> int option;
  peek_min : unit -> int option;
  insert_until : deadline:int -> int -> unit Mound.Intf.outcome;
  extract_min_until : deadline:int -> int option Mound.Intf.outcome;
  size : unit -> int;
  check : unit -> bool;
  ops : unit -> Mound.Stats.Ops.t option;
}

let of_mound (type q)
    (module M : Mound.Intf.MOUND with type elt = int and type t = q) (q : q) =
  {
    insert = M.insert q;
    insert_many = (fun b -> M.insert_many q (List.sort compare b));
    extract_min = (fun () -> M.extract_min q);
    extract_many = (fun () -> M.extract_many q);
    extract_approx = (fun ?max_level () -> M.extract_approx ?max_level q);
    peek_min = (fun () -> M.peek_min q);
    insert_until = (fun ~deadline v -> M.insert_until q ~deadline v);
    extract_min_until = (fun ~deadline -> M.extract_min_until q ~deadline);
    size = (fun () -> M.size q);
    check = (fun () -> M.check q);
    ops = (fun () -> None);
  }

let of_basic ~insert ~extract_min ~peek_min ~size ~check =
  {
    insert;
    insert_many = List.iter insert;
    extract_min;
    extract_many = (fun () -> Option.to_list (extract_min ()));
    extract_approx = (fun ?max_level:_ () -> extract_min ());
    peek_min;
    insert_until =
      (fun ~deadline:_ v ->
        insert v;
        Mound.Intf.Ok ());
    extract_min_until = (fun ~deadline:_ -> Mound.Intf.Ok (extract_min ()));
    size;
    check;
    ops = (fun () -> None);
  }

type maker = { name : string; linearizable : bool; make : capacity:int -> t }

module Of_runtime (R : Runtime.S) = struct
  module Lf = Mound.Lf.Make (R) (Mound.Int_ord)
  module Lock = Mound.Lock.Make (R) (Mound.Int_ord)
  module Mq = Mound.Multiqueue.Make (R) (Mound.Int_ord)
  module Hunt = Baselines.Hunt_heap.Make (R) (Mound.Int_ord)
  module Sl = Baselines.Skiplist_pq.Make (R) (Mound.Int_ord)
  module Coarse = Baselines.Coarse_heap.Make (R) (Mound.Int_ord)
  module Sl_lock = Baselines.Skiplist_lock_pq.Make (R) (Mound.Int_ord)
  module Stm_h = Baselines.Stm_heap.Make (R)

  let mound_lock =
    {
      name = "Mound (Lock)";
      linearizable = true;
      make =
        (fun ~capacity:_ ->
          let q = Lock.create () in
          {
            (of_mound (module Lock) q) with
            ops = (fun () -> Some (Lock.ops q));
          });
    }

  let mound_lf =
    {
      name = "Mound (LF)";
      linearizable = true;
      make =
        (fun ~capacity:_ ->
          let q = Lf.create () in
          { (of_mound (module Lf) q) with ops = (fun () -> Some (Lf.ops q)) });
    }

  (* Relaxed by design (Williams & Sanders): [extract_min] returns a
     sampled queue's minimum, not the global one. *)
  let multiqueue ?c ?stickiness ?queues ~domains () =
    {
      name = "MultiQueue";
      linearizable = false;
      make =
        (fun ~capacity:_ ->
          let q = Mq.create ?c ?stickiness ?queues ~domains () in
          { (of_mound (module Mq) q) with ops = (fun () -> Some (Mq.ops q)) });
    }

  (* Hunt's delete-min takes the "bottom" element out of the tree before
     locking the root; while that value sits in the deleter's hand,
     larger values can be extracted, and when it re-enters at the root a
     later extract may return it — so per-thread extraction sequences
     are not monotone. This is inherent to the algorithm, not an
     implementation artifact. *)
  let hunt =
    {
      name = "Hunt Heap (Lock)";
      linearizable = false;
      make =
        (fun ~capacity ->
          let q = Hunt.create ~capacity () in
          of_basic ~insert:(Hunt.insert q)
            ~extract_min:(fun () -> Hunt.extract_min q)
            ~peek_min:(fun () -> Hunt.peek_min q)
            ~size:(fun () -> Hunt.size q)
            ~check:(fun () -> Hunt.check q));
    }

  (* The skip lists are quiescently consistent: extraction is
     multiset-correct, not linearizable. *)
  let skiplist =
    {
      name = "Skip List (QC)";
      linearizable = false;
      make =
        (fun ~capacity:_ ->
          let q = Sl.create () in
          of_basic ~insert:(Sl.insert q)
            ~extract_min:(fun () -> Sl.extract_min q)
            ~peek_min:(fun () -> Sl.peek_min q)
            ~size:(fun () -> Sl.size q)
            ~check:(fun () -> Sl.check q));
    }

  let skiplist_lock =
    {
      name = "Skip List (Lock)";
      linearizable = false;
      make =
        (fun ~capacity:_ ->
          let q = Sl_lock.create () in
          of_basic ~insert:(Sl_lock.insert q)
            ~extract_min:(fun () -> Sl_lock.extract_min q)
            ~peek_min:(fun () -> Sl_lock.peek_min q)
            ~size:(fun () -> Sl_lock.size q)
            ~check:(fun () -> Sl_lock.check q));
    }

  let stm_heap =
    {
      name = "STM Heap";
      linearizable = true;
      make =
        (fun ~capacity ->
          let q = Stm_h.create ~capacity () in
          of_basic ~insert:(Stm_h.insert q)
            ~extract_min:(fun () -> Stm_h.extract_min q)
            ~peek_min:(fun () -> Stm_h.peek_min q)
            ~size:(fun () -> Stm_h.size q)
            ~check:(fun () -> Stm_h.check q));
    }

  let coarse =
    {
      name = "Coarse Heap";
      linearizable = true;
      make =
        (fun ~capacity ->
          let q = Coarse.create ~capacity () in
          of_basic ~insert:(Coarse.insert q)
            ~extract_min:(fun () -> Coarse.extract_min q)
            ~peek_min:(fun () -> Coarse.peek_min q)
            ~size:(fun () -> Coarse.size q)
            ~check:(fun () -> Coarse.check q));
    }

  let paper_set = [ mound_lock; mound_lf; hunt; skiplist ]
  let extended_set = paper_set @ [ coarse; stm_heap; skiplist_lock ]
end

module On_real = Of_runtime (Runtime.Real)
module On_sim = Of_runtime (Sim.Runtime)
