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

  type mnode = { list : Ord.t list; dirty : bool; seq : int }
  type t = { tree : mnode M.loc T.t }

  let vcompare = Mound.Intf.Value.compare Ord.compare
  let node_value n = match n.list with [] -> None | x :: _ -> Some x

  (* [val(l) <= v], the parent-side insertion condition; ⊤ fails it. *)
  let head_le l v = match l with [] -> false | x :: _ -> Ord.compare x v <= 0

  let create () =
    let make_slot () = M.make { list = []; dirty = false; seq = 0 } in
    { tree = T.create make_slot }

  let read t i = M.get (T.get t.tree i)

  let rec moundify t n =
    let slot = T.get t.tree n in
    let node = M.get slot in
    let d = T.depth t.tree in
    if not node.dirty then ()
    else if T.is_leaf n ~depth:d then begin
      if
        M.cas slot node { list = node.list; dirty = false; seq = node.seq + 1 }
      then ()
      else moundify t n
    end
    else begin
      let lslot = T.get t.tree (2 * n) and rslot = T.get t.tree ((2 * n) + 1) in
      let left = M.get lslot in
      let right = M.get rslot in
      if left.dirty then begin
        moundify t (2 * n);
        moundify t n
      end
      else if right.dirty then begin
        moundify t ((2 * n) + 1);
        moundify t n
      end
      else begin
        let vn = node_value node
        and vl = node_value left
        and vr = node_value right in
        if vcompare vl vr <= 0 && vcompare vl vn < 0 then begin
          if
            M.dcas slot node
              { list = left.list; dirty = false; seq = node.seq + 1 }
              lslot left
              { list = node.list; dirty = true; seq = left.seq + 1 }
          then moundify t (2 * n)
          else moundify t n
        end
        else if vcompare vr vl < 0 && vcompare vr vn < 0 then begin
          if
            M.dcas slot node
              { list = right.list; dirty = false; seq = node.seq + 1 }
              rslot right
              { list = node.list; dirty = true; seq = right.seq + 1 }
          then moundify t ((2 * n) + 1)
          else moundify t n
        end
        else begin
          if
            M.cas slot node
              { list = node.list; dirty = false; seq = node.seq + 1 }
          then ()
          else moundify t n
        end
      end
    end

  let max_insert_rounds = 8

  let ge slot v = Mound.Intf.Sorted.head_ge Ord.compare (M.get slot).list v

  let rec insert_attempt t v round =
    let c =
      if round < max_insert_rounds then T.find_insert_point t.tree ~ge v
      else T.fallback_point t.tree ~ge v
    in
    let cslot = T.get t.tree c in
    let cur = M.get cslot in
    if Mound.Intf.Sorted.head_ge Ord.compare cur.list v then begin
      let fresh =
        { list = v :: cur.list; dirty = cur.dirty; seq = cur.seq + 1 }
      in
      if c = 1 then begin
        if not (M.cas cslot cur fresh) then insert_attempt t v (round + 1)
      end
      else begin
        let pslot = T.get t.tree (c / 2) in
        let parent = M.get pslot in
        if head_le parent.list v then begin
          if not (M.dcss pslot parent cslot cur fresh) then
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
    let root = M.get slot in
    match root.list with
    | [] -> None
    | hd :: tl ->
        if M.cas slot root { list = tl; dirty = true; seq = root.seq + 1 }
        then begin
          moundify t 1;
          Some hd
        end
        else extract_min t

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (M.get slot).list) acc

  let peek_min t = node_value (read t 1)
  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  let check t =
    Mound.Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t)
      ~parent:(fun p ->
        let parent = read t p in
        if parent.dirty then None else Some parent.list)
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
