(** Sequential mound.

    The reference implementation: same tree of sorted lists, same
    randomized leaf probing and binary-search insertion, same
    sift-down-by-list-swap extraction as the concurrent variants, but
    with no node records and no dirty bits: each node's sorted list is
    stored directly in its level's {!Tree} row and replaced in place,
    and the mound property is restored before each operation returns.
    It serves three roles: the oracle in tests, the engine for the
    paper's sequential structure experiments (Tables I–IV), and the
    single-thread baseline in benches. *)

module Make (Ord : Intf.ORDERED) = struct
  module T = Tree.Make (Runtime.Real)

  type elt = Ord.t

  (* Node [i] of level [l] is element [i - 2^l] of row [l]: its list. *)
  type t = { tree : elt list T.t; rng : Prng.t }

  let head_compare a b = Intf.Sorted.head_compare Ord.compare a b

  let create ?threshold ?init_depth ?(seed = 1L) () =
    let rng = Prng.create seed in
    let tree =
      T.create ?threshold ?init_depth ~rand:(fun bound -> Prng.int rng bound)
        (fun () -> [])
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
    let ge i = Intf.Sorted.head_ge Ord.compare (T.get t.tree i) hd in
    let c, clvl = T.find_insert_point_lv t.tree ~ge in
    let row = T.row t.tree ~level:clvl and j = c - (1 lsl clvl) in
    let l = row.(j) in
    row.(j) <- hd :: Intf.Sorted.splice Ord.compare rest l;
    match Intf.Sorted.remainder Ord.compare rest l with
    | [] -> ()
    | hd :: rest -> put t hd rest

  let insert t v = put t v []

  (** Insert a {e sorted} batch: the dual of [extract_many], useful for
      returning unconsumed work to the pool. *)
  let insert_many t = function [] -> () | hd :: rest -> put t hd rest

  (* Restore the mound property below node [n] by swapping lists with the
     smaller child until the node dominates both children — the
     sequential skeleton of the paper's moundify. [level] is ⌊log₂ n⌋:
     [n] is element [j = n - 2^level] of its row and its children are
     elements [2j] and [2j+1] of the next, so each level fetches the two
     rows once. *)
  let rec moundify t n ~level =
    if not (T.is_leaf n ~depth:(T.depth t.tree)) then begin
      let row = T.row t.tree ~level
      and kids = T.row t.tree ~level:(level + 1) in
      let j = n - (1 lsl level) in
      let ln = row.(j) and ll = kids.(2 * j) and lr = kids.((2 * j) + 1) in
      if head_compare ll lr <= 0 && head_compare ll ln < 0 then begin
        row.(j) <- ll;
        kids.(2 * j) <- ln;
        moundify t (2 * n) ~level:(level + 1)
      end
      else if head_compare lr ll < 0 && head_compare lr ln < 0 then begin
        row.(j) <- lr;
        kids.((2 * j) + 1) <- ln;
        moundify t ((2 * n) + 1) ~level:(level + 1)
      end
    end

  (** [take t n ~level ~all] removes the head of node [n]'s list, or the
      whole list when [all] ([extract_many]), restores the mound property
      below [n], and returns the list as it was: its head is the element
      taken. [level] is ⌊log₂ n⌋. *)
  let take t n ~level ~all =
    let row = T.row t.tree ~level and j = n - (1 lsl level) in
    let l = row.(j) in
    (match l with
    | [] -> ()
    | _ :: tl ->
        row.(j) <- (if all then [] else tl);
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

  let peek_min t = Intf.Sorted.value (T.get_at t.tree ~level:0 1)

  let is_empty t = peek_min t = None

  let fold_nodes t f acc = T.fold t.tree f acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** The mound property plus per-node list sortedness, checked over the
      whole tree. *)
  let check t =
    Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t) ~parent:(fun p ->
        Some (T.get t.tree p))
end
