(** Sequential mound.

    The reference implementation: same tree of sorted lists, same
    randomized leaf probing and binary-search insertion, same
    sift-down-by-list-swap extraction as the concurrent variants, but with
    plain mutable nodes and no dirty bits (the mound property is restored
    before each operation returns). It serves three roles: the oracle in
    tests, the engine for the paper's sequential structure experiments
    (Tables I–IV), and the single-thread baseline in benches. *)

module Make (Ord : Intf.ORDERED) = struct
  module T = Tree.Make (Runtime.Real)

  type elt = Ord.t

  type node = { mutable list : elt list }

  type t = { tree : node T.t; rng : Prng.t }

  let vcompare = Intf.Value.compare Ord.compare

  let node_value n = Intf.Sorted.value n.list

  let create ?threshold ?init_depth ?(seed = 1L) () =
    let rng = Prng.create seed in
    let tree =
      T.create ?threshold ?init_depth ~rand:(fun bound -> Prng.int rng bound)
        (fun () -> { list = [] })
    in
    { tree; rng }

  let depth t = T.depth t.tree

  (* Publish the sorted run [hd :: rest]: find the insert point for [hd]
     and write [hd] there, spliced with the longest prefix of [rest] that
     fits the same node, then go on with the remainder. Probing and
     binary search are paid once per node, not per element. No
     validation is needed sequentially: [find_insert_point] guarantees
     [val(parent) < hd <= val(c)]. *)
  let rec put t hd rest =
    let ge i = Intf.Sorted.head_ge Ord.compare (T.get t.tree i).list hd in
    let c, clvl = T.find_insert_point_lv t.tree ~ge in
    let node = T.get_at t.tree ~level:clvl c in
    let l = node.list in
    node.list <- hd :: Intf.Sorted.splice Ord.compare rest l;
    match Intf.Sorted.remainder Ord.compare rest l with
    | [] -> ()
    | hd :: rest -> put t hd rest

  let insert t v = put t v []

  (** Insert a {e sorted} batch: the dual of [extract_many], useful for
      returning unconsumed work to the pool. *)
  let insert_many t = function [] -> () | hd :: rest -> put t hd rest

  (* Restore the mound property below node [n] by swapping lists with the
     smaller child until the node dominates both children — the
     sequential skeleton of the paper's moundify. [level] is ⌊log₂ n⌋,
     threaded down so child slots are fetched without recomputing it. *)
  let rec moundify t n ~level =
    let d = T.depth t.tree in
    if not (T.is_leaf n ~depth:d) then begin
      let node = T.get_at t.tree ~level n in
      let left = T.get_at t.tree ~level:(level + 1) (2 * n) in
      let right = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let vn = node_value node
      and vl = node_value left
      and vr = node_value right in
      if vcompare vl vr <= 0 && vcompare vl vn < 0 then begin
        let tmp = node.list in
        node.list <- left.list;
        left.list <- tmp;
        moundify t (2 * n) ~level:(level + 1)
      end
      else if vcompare vr vl < 0 && vcompare vr vn < 0 then begin
        let tmp = node.list in
        node.list <- right.list;
        right.list <- tmp;
        moundify t ((2 * n) + 1) ~level:(level + 1)
      end
    end

  (** [take t n ~level ~all] removes the head of node [n]'s list, or the
      whole list when [all] ([extract_many]), restores the mound property
      below [n], and returns the list as it was: its head is the element
      taken. [level] is ⌊log₂ n⌋. *)
  let take t n ~level ~all =
    let node = T.get_at t.tree ~level n in
    let l = node.list in
    (match l with
    | [] -> ()
    | _ :: tl ->
        node.list <- (if all then [] else tl);
        moundify t n ~level);
    l

  let extract_min t =
    Intf.Sorted.value (take t 1 ~level:0 ~all:false)

  (** Take the root's entire sorted list in one operation (§V of the
      paper). *)
  let extract_many t = take t 1 ~level:0 ~all:true

  (** The list a probabilistic extract-min takes the head of: a random
      node within the first [max_level+1] levels, whose head is the
      minimum of the sub-mound rooted there and so probably close to the
      global minimum (§V), or the root's when that node is empty. *)
  let take_approx t ~max_level =
    let d = T.depth t.tree in
    let lvl = min max_level (d - 1) in
    let span = (1 lsl (lvl + 1)) - 1 in
    let n = 1 + Prng.int t.rng span in
    match take t n ~level:(T.level_of n) ~all:false with
    | [] -> take t 1 ~level:0 ~all:false
    | l -> l

  let extract_approx ?(max_level = 2) t =
    Intf.Sorted.value (take_approx t ~max_level)

  (* Sequential operations never retry, so the deadline variants are the
     plain operations with the successful outcome: they exist so the
     oracle satisfies the same MOUND signature the concurrent variants
     are checked against. *)
  let insert_until t ~deadline:_ v =
    insert t v;
    Intf.Ok ()

  let extract_min_until t ~deadline:_ = Intf.Ok (extract_min t)

  let peek_min t = node_value (T.get_at t.tree ~level:0 1)

  let is_empty t = peek_min t = None

  let fold_nodes t f acc = T.fold t.tree (fun acc i n -> f acc i n.list) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** The mound property plus per-node list sortedness, checked over the
      whole tree. *)
  let check t =
    Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t) ~parent:(fun p ->
        Some (T.get t.tree p).list)
end
