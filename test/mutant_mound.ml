(* A deliberately broken copy of [Mound.Lf], seeded for the DPOR tier:
   [extract_min] ignores the root's dirty bit instead of helping
   [moundify] first (the paper's L24–L26 are deleted, and the CAS no
   longer re-checks cleanliness). A thread that observes the root mid-
   extraction — emptied and dirty, its list swapped down but not yet
   restored — concludes the mound is empty and returns [None] while
   elements sit one level below. The model checker must find the
   two-extract interleaving that exposes this; stress tests usually
   don't.

   Everything else (insert, moundify, introspection) is copied verbatim
   from [lib/core/lf_mound.ml], trimmed to what a [Harness.Pq.t] needs,
   so the only semantic difference is the dropped dirty handling. *)

module Make (R : Runtime.S) (Ord : Mound.Intf.ORDERED) = struct
  module M = Mcas.Make (R.Atomic)
  module T = Mound.Tree.Make (R)

  (* A node is a constructor of the cell state itself, as in
     [Mound.Lf]; the cells' type parameter is unused. *)
  type _ M.state += Node of { list : Ord.t list; dirty : bool; seq : int }

  type t = { tree : unit M.Cell.t T.t }

  let list_of = function Node { list; _ } -> list | _ -> assert false
  let is_dirty = function Node { dirty; _ } -> dirty | _ -> assert false
  let stamp = function Node { seq; _ } -> seq | _ -> assert false
  let vcompare = Mound.Intf.Value.compare Ord.compare

  let node_value n =
    match list_of n with [] -> None | x :: _ -> Some x

  (* [val(l) <= v], the parent-side insertion condition; ⊤ fails it. *)
  let head_le l v = match l with [] -> false | x :: _ -> Ord.compare x v <= 0

  let create () =
    let make_slot () =
      M.Cell.make (Node { list = []; dirty = false; seq = 0 })
    in
    { tree = T.create make_slot }

  let read t i = M.Cell.get (T.get t.tree i)

  let rec moundify t n =
    let slot = T.get t.tree n in
    let node = M.Cell.get slot in
    let d = T.depth t.tree in
    if not (is_dirty node) then ()
    else if T.is_leaf n ~depth:d then begin
      if
        M.Cell.cas slot node
          (Node { list = list_of node; dirty = false; seq = stamp node + 1 })
      then ()
      else moundify t n
    end
    else begin
      let lslot = T.get t.tree (2 * n) and rslot = T.get t.tree ((2 * n) + 1) in
      let left = M.Cell.get lslot in
      let right = M.Cell.get rslot in
      if is_dirty left then begin
        moundify t (2 * n);
        moundify t n
      end
      else if is_dirty right then begin
        moundify t ((2 * n) + 1);
        moundify t n
      end
      else begin
        let vn = node_value node
        and vl = node_value left
        and vr = node_value right in
        if vcompare vl vr <= 0 && vcompare vl vn < 0 then begin
          if
            M.Cell.dcas slot node
              (Node
                 { list = list_of left; dirty = false; seq = stamp node + 1 })
              lslot left
              (Node { list = list_of node; dirty = true; seq = stamp left + 1 })
          then moundify t (2 * n)
          else moundify t n
        end
        else if vcompare vr vl < 0 && vcompare vr vn < 0 then begin
          if
            M.Cell.dcas slot node
              (Node
                 { list = list_of right; dirty = false; seq = stamp node + 1 })
              rslot right
              (Node
                 { list = list_of node; dirty = true; seq = stamp right + 1 })
          then moundify t ((2 * n) + 1)
          else moundify t n
        end
        else begin
          if
            M.Cell.cas slot node
              (Node
                 { list = list_of node; dirty = false; seq = stamp node + 1 })
          then ()
          else moundify t n
        end
      end
    end

  let max_insert_rounds = 8

  let ge slot v =
    Mound.Intf.Sorted.head_ge Ord.compare (list_of (M.Cell.get slot)) v

  let rec insert_attempt t v round =
    let c =
      if round < max_insert_rounds then T.find_insert_point t.tree ~ge v
      else T.fallback_point t.tree ~ge v
    in
    let cslot = T.get t.tree c in
    let cur = M.Cell.get cslot in
    if Mound.Intf.Sorted.head_ge Ord.compare (list_of cur) v then begin
      let fresh =
        Node
          { list = v :: list_of cur; dirty = is_dirty cur; seq = stamp cur + 1 }
      in
      if c = 1 then begin
        if not (M.Cell.cas cslot cur fresh) then insert_attempt t v (round + 1)
      end
      else begin
        let pslot = T.get t.tree (c / 2) in
        let parent = M.Cell.get pslot in
        if head_le (list_of parent) v then begin
          if not (M.Cell.dcss pslot parent cslot cur fresh) then
            insert_attempt t v (round + 1)
        end
        else insert_attempt t v (round + 1)
      end
    end
    else insert_attempt t v (round + 1)

  let insert t v = insert_attempt t v 0

  (* THE MUTATION. Upstream reads the root and, if it is dirty, helps
     [moundify] before retrying; here a dirty root is treated as clean,
     so its (possibly already-emptied) list is trusted. *)
  let rec extract_min t =
    let slot = T.get t.tree 1 in
    let root = M.Cell.get slot in
    match list_of root with
    | [] -> None
    | hd :: tl ->
        if
          M.Cell.cas slot root
            (Node { list = tl; dirty = true; seq = stamp root + 1 })
        then begin
          moundify t 1;
          Some hd
        end
        else extract_min t

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (list_of (M.Cell.get slot))) acc

  let peek_min t = node_value (read t 1)
  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  let check t =
    Mound.Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t)
      ~parent:(fun p ->
        let parent = read t p in
        if is_dirty parent then None else Some (list_of parent))
end

module On_sim = Make (Sim.Runtime) (Mound.Int_ord)

(** A [Harness.Pq.t] over the mutant, for {!Harness.Dpor_exp.pq_program}. *)
let make_pq () =
  let q = On_sim.create () in
  Harness.Pq.of_basic ~insert:(On_sim.insert q)
    ~extract_min:(fun () -> On_sim.extract_min q)
    ~peek_min:(fun () -> On_sim.peek_min q)
    ~size:(fun () -> On_sim.size q)
    ~check:(fun () -> On_sim.check q)
