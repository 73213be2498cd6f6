(* Tests for the growable tree substrate shared by all mound variants. *)

module T = Mound.Tree.Make (Runtime.Real)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_tree ?threshold ?init_depth ?rand () =
  T.create ?threshold ?init_depth ?rand (fun () -> ref (-1))

(* A tree whose node [i] holds [base + i]: [create] makes the slots of
   its rows in index order, and [expand] each later row, so a counter
   numbers them. The probe hands [ge] the slot, so over [base = 0] a
   predicate on slots reads as one on node indices. *)
let indexed_tree ?(base = 0) ?init_depth ?rand () =
  let next = ref base in
  T.create ?init_depth ?rand (fun () ->
      incr next;
      !next)

(* Pin the constant-time level_of against the naive shift-loop reference
   it replaced, over every index of a 16-level tree plus the extremes. *)
let level_of_pinned () =
  let reference i =
    let rec go l v = if v <= 1 then l else go (l + 1) (v lsr 1) in
    go 0 i
  in
  for i = 1 to 1 lsl 16 do
    if Mound.Tree.level_of i <> reference i then
      Alcotest.failf "level_of %d: got %d, want %d" i (Mound.Tree.level_of i)
        (reference i)
  done;
  check_int "max_int" 61 (Mound.Tree.level_of max_int);
  check_int "2^40" 40 (Mound.Tree.level_of (1 lsl 40));
  check_int "2^40-1" 39 (Mound.Tree.level_of ((1 lsl 40) - 1))

let level_of () =
  check_int "level 1" 0 (T.level_of 1);
  check_int "level 2" 1 (T.level_of 2);
  check_int "level 3" 1 (T.level_of 3);
  check_int "level 4" 2 (T.level_of 4);
  check_int "level 7" 2 (T.level_of 7);
  check_int "level 8" 3 (T.level_of 8);
  check_int "level 2^20" 20 (T.level_of (1 lsl 20));
  check_int "level 2^20+5" 20 (T.level_of ((1 lsl 20) + 5))

let is_leaf () =
  check "1 is leaf at depth 1" true (T.is_leaf 1 ~depth:1);
  check "1 not leaf at depth 2" false (T.is_leaf 1 ~depth:2);
  check "2 leaf at depth 2" true (T.is_leaf 2 ~depth:2);
  check "3 leaf at depth 2" true (T.is_leaf 3 ~depth:2);
  check "2 not leaf at depth 3" false (T.is_leaf 2 ~depth:3);
  check "4..7 leaves at depth 3" true
    (List.for_all (fun i -> T.is_leaf i ~depth:3) [ 4; 5; 6; 7 ]);
  check "8 not leaf at depth 3" false (T.is_leaf 8 ~depth:3)

let creation_and_get () =
  let t = make_tree ~init_depth:3 () in
  check_int "depth" 3 (T.depth t);
  (* all 7 nodes reachable and distinct: writing each a distinct value
     must not clobber any other *)
  let slots = List.init 7 (fun i -> T.get t (i + 1)) in
  List.iteri (fun i r -> r := i) slots;
  List.iteri (fun i r -> check_int "slot content" i !r) slots

let get_unallocated_rejected () =
  let t = make_tree ~init_depth:1 () in
  (* the hot levels (0..2) are pre-published by [create] for padding,
     so the first genuinely unallocated row is level 3 *)
  List.iter (fun i -> ignore (T.get t i)) [ 2; 4; 7 ];
  Alcotest.check_raises "level 3 not allocated"
    (Invalid_argument "Mound.Tree.get: unallocated level") (fun () ->
      ignore (T.get t 8))

let bad_args_rejected () =
  Alcotest.check_raises "depth 0"
    (Invalid_argument "Mound.Tree.create: bad initial depth") (fun () ->
      ignore (make_tree ~init_depth:0 ()));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Mound.Tree.create: bad threshold") (fun () ->
      ignore (make_tree ~threshold:0 ()))

let expansion () =
  let t = make_tree () in
  check_int "initial depth" 1 (T.depth t);
  T.expand t 1;
  check_int "depth 2" 2 (T.depth t);
  ignore (T.get t 2);
  ignore (T.get t 3);
  (* stale expand is a no-op *)
  T.expand t 1;
  check_int "still 2" 2 (T.depth t);
  T.expand t 2;
  check_int "depth 3" 3 (T.depth t);
  ignore (T.get t 7)

let binary_search_on_path () =
  (* ge over the slots along the ancestor chain of leaf 12 at depth 4:
     path is 1, 3, 6, 12 (levels 0..3). *)
  let t = indexed_tree ~init_depth:4 () in
  let ge i set = List.mem i set in
  (* ge holds from level 2 down: expect node 6 *)
  check_int "finds shallowest ge" 6 (T.binary_search t ~ge [ 6; 12 ] 12 4);
  (* ge holds everywhere: expect root *)
  check_int "root when all ge" 1
    (T.binary_search t ~ge [ 1; 3; 6; 12 ] 12 4);
  (* ge holds only at the leaf *)
  check_int "leaf when only leaf ge" 12 (T.binary_search t ~ge [ 12 ] 12 4);
  (* depth 1: the root is the leaf *)
  check_int "depth-1 chain" 1 (T.binary_search t ~ge [ 1 ] 1 1)

let find_insert_point_expands () =
  (* With ge false everywhere, every probe fails and the tree grows each
     round until ge accepts (here: accept at depth 3). *)
  let t = indexed_tree () in
  let ge i level = T.level_of i >= level in
  let c = T.find_insert_point t ~ge 2 in
  check "returned a level >= 2 node" true (T.level_of c >= 2);
  check "tree grew to depth 3" true (T.depth t >= 3)

let find_insert_point_probes_leaves () =
  let t = indexed_tree ~init_depth:4 () in
  (* accept any leaf; result must lie on a leaf-to-root chain, i.e. be a
     valid node of the tree *)
  for _ = 1 to 100 do
    let c = T.find_insert_point t ~ge:(fun _ () -> true) () in
    check "root when all ge" true (c = 1)
  done;
  (* ge true only at leaves: returns a leaf *)
  let d = T.depth t in
  for _ = 1 to 100 do
    let c = T.find_insert_point t ~ge:(fun i depth -> T.is_leaf i ~depth) d in
    check "leaf returned" true (T.is_leaf c ~depth:d)
  done

(* [ge] is handed slots, never node indices, and only the slots of the
   nodes the search visits: probed leaves, then ancestors of the leaf it
   accepted, the chain that holds the returned node. Node [i] holds
   [1000 + i], so a slot read at the wrong offset of its row, or from
   the wrong row, records a value off that chain. Leaves whose index is
   a multiple of 3 are rejected, so some probes fail; above the leaves
   [ge] holds from level [top] down, so the search returns the accepted
   leaf's ancestor at level [top] (the leaf itself when [top] is the
   leaf level). *)
let probe_hands_visited_slots () =
  let d = 6 and base = 1000 in
  let rng = Prng.create 5L in
  let t = indexed_tree ~base ~init_depth:d ~rand:(Prng.int rng) () in
  let search top =
    let seen = ref [] in
    let ge v top =
      let i = v - base in
      let ok =
        T.level_of i >= top && (T.level_of i < d - 1 || i mod 3 <> 0)
      in
      seen := (i, ok) :: !seen;
      ok
    in
    let c = T.find_insert_point t ~ge top in
    let handed = List.rev !seen in
    List.iter
      (fun (i, _) ->
        if i < 1 || i >= 1 lsl d then Alcotest.failf "ge handed %d" (i + base))
      handed;
    let leaves, chain =
      List.partition (fun (i, _) -> T.is_leaf i ~depth:d) handed
    in
    let leaf =
      match List.rev leaves with
      | (leaf, true) :: rejected ->
          check "earlier probes rejected" true
            (List.for_all (fun (_, ok) -> not ok) rejected);
          leaf
      | _ -> Alcotest.fail "no accepted leaf"
    in
    check "searched the accepted leaf's ancestors" true
      (List.for_all (fun (i, _) -> leaf lsr (d - 1 - T.level_of i) = i) chain);
    check_int "returned the accepted leaf's ancestor" (leaf lsr (d - 1 - top)) c
  in
  for _ = 1 to 100 do
    search 3;
    search (d - 1)
  done

let deterministic_with_rand () =
  let mk () =
    let rng = Prng.create 77L in
    indexed_tree ~init_depth:5 ~rand:(fun b -> Prng.int rng b) ()
  in
  let t1 = mk () and t2 = mk () in
  let ge i v = i > v in
  let picks1 = List.init 50 (fun _ -> T.find_insert_point t1 ~ge 3) in
  let picks2 = List.init 50 (fun _ -> T.find_insert_point t2 ~ge 3) in
  check "same rand, same picks" true (picks1 = picks2)

(* The escape hatch searches the leftmost chain 1, 2, 4, 8, 16 with the
   same binary search, and draws no random number: the tree's [rand]
   fails if called. *)
let fallback_searches_leftmost_chain () =
  let t =
    indexed_tree ~init_depth:5 ~rand:(fun _ -> Alcotest.fail "drew") ()
  in
  let ge i v = i > v in
  for v = 0 to 15 do
    check_int
      (Printf.sprintf "binary-search point for %d" v)
      (T.binary_search t ~ge v 16 5)
      (T.fallback_point t ~ge v)
  done;
  check_int "all dominate: the root" 1 (T.fallback_point t ~ge 0);
  check_int "first node above 3" 4 (T.fallback_point t ~ge 3);
  check_int "only the leaf dominates" 16 (T.fallback_point t ~ge 15);
  check_int "depth unchanged" 5 (T.depth t)

(* Node [i] holds [i] across growth ([expand] numbers each new row in
   index order), so a key at or above the leftmost leaf's index is not
   dominated until the tree has grown past it. *)
let fallback_grows_past_leftmost_leaf () =
  let t = indexed_tree ~init_depth:3 () in
  let ge i v = i > v in
  check_int "one level: leaf 8" 8 (T.fallback_point t ~ge 6);
  check_int "grew one level" 4 (T.depth t);
  check_int "two levels: leaf 32" 32 (T.fallback_point t ~ge 20);
  check_int "grew two levels" 6 (T.depth t)

(* §V's pick: node [1 + rand (2^(lvl+1) - 1)] with [lvl = min max_level
   (depth - 1)]. A [rand] that returns its top value reaches the upper
   bound exactly; a seeded one stays within it. *)
let shallow_node_bounds () =
  let rng = Prng.create 11L in
  for depth = 1 to 5 do
    for max_level = 0 to 5 do
      let hi = (1 lsl (min max_level (depth - 1) + 1)) - 1 in
      let top = indexed_tree ~init_depth:depth ~rand:(fun b -> b - 1) () in
      check_int
        (Printf.sprintf "depth %d, max_level %d: top" depth max_level)
        hi
        (T.shallow_node top ~max_level);
      let t = indexed_tree ~init_depth:depth ~rand:(Prng.int rng) () in
      for _ = 1 to 200 do
        let n = T.shallow_node t ~max_level in
        if n < 1 || n > hi then
          Alcotest.failf "depth %d, max_level %d: drew %d" depth max_level n
      done
    done
  done

let fold_visits_all () =
  let t = make_tree ~init_depth:3 () in
  for i = 1 to 7 do
    T.get t i := i
  done;
  let visited = T.fold t (fun acc i slot -> (i, !slot) :: acc) [] in
  check_int "7 nodes" 7 (List.length visited);
  check "indices match contents" true
    (List.for_all (fun (i, v) -> i = v) visited)

let row_allocation_accounting () =
  let t = make_tree ~init_depth:1 () in
  check_int "no expand-time allocations at creation" 0 (T.row_allocations t);
  (* levels 1 and 2 are pre-published (hot padding): expanding through
     them advances the depth without allocating *)
  T.expand t 1;
  T.expand t 2;
  check_int "pre-published rows not re-allocated" 0 (T.row_allocations t);
  T.expand t 3;
  check_int "level 3 allocated once" 1 (T.row_allocations t);
  (* a stale expand of an already-published level allocates nothing *)
  T.expand t 3;
  check_int "stale expand allocation-free" 1 (T.row_allocations t);
  T.expand t 4;
  check_int "level 4 allocated once" 2 (T.row_allocations t);
  check_int "depth advanced" 5 (T.depth t)

let concurrent_expansion () =
  (* domains race to expand; depth must advance exactly and all rows must
     be usable afterwards *)
  let t = make_tree ~init_depth:1 () in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for d = 1 to 10 do
              T.expand t d
            done))
  in
  List.iter Domain.join doms;
  check_int "depth 11" 11 (T.depth t);
  for i = 1 to (1 lsl 11) - 1 do
    ignore (T.get t i)
  done

(* property: find_insert_point's result always satisfies ge, and its
   parent (when not the root) does not — for any monotone-on-paths ge *)
let prop_insert_point_contract =
  QCheck.Test.make ~name:"find_insert_point contract" ~count:300
    QCheck.(pair (int_bound 1000) small_int)
    (fun (cut, seed) ->
      (* ge true on nodes with index >= cut+1: anti-monotone along paths
         (descendants have larger indices), like a mound's val >= v *)
      let rng = Prng.create (Int64.of_int (seed + 1)) in
      let t = indexed_tree ~init_depth:6 ~rand:(fun b -> Prng.int rng b) () in
      let ge i cut = i > cut in
      if not (ge ((1 lsl 6) - 1) cut) then true (* deepest leaf may fail ge *)
      else begin
        let c = T.find_insert_point t ~ge cut in
        ge c cut && (c = 1 || not (ge (c / 2) cut))
      end)

let prop_binary_search_boundary =
  QCheck.Test.make ~name:"binary_search finds the boundary" ~count:300
    QCheck.(pair (int_bound 5) small_int)
    (fun (k, leaf_seed) ->
      (* path of leaf at depth 6; ge holds from level k down *)
      let d = 6 in
      let leaf = (1 lsl (d - 1)) + (abs leaf_seed mod (1 lsl (d - 1))) in
      let path = List.init d (fun lvl -> leaf lsr (d - 1 - lvl)) in
      let suffix = List.filteri (fun i _ -> i >= k) path in
      let ge i suffix = List.mem i suffix in
      T.binary_search (indexed_tree ~init_depth:d ()) ~ge suffix leaf d
      = List.nth path k)

let () =
  Alcotest.run "tree"
    [
      ( "geometry",
        [
          Alcotest.test_case "level_of" `Quick level_of;
          Alcotest.test_case "level_of pinned to loop reference" `Quick
            level_of_pinned;
          Alcotest.test_case "is_leaf" `Quick is_leaf;
        ] );
      ( "storage",
        [
          Alcotest.test_case "creation and get" `Quick creation_and_get;
          Alcotest.test_case "unallocated get rejected" `Quick
            get_unallocated_rejected;
          Alcotest.test_case "bad args rejected" `Quick bad_args_rejected;
          Alcotest.test_case "expansion" `Quick expansion;
          Alcotest.test_case "row allocation accounting" `Quick
            row_allocation_accounting;
          Alcotest.test_case "fold visits all" `Quick fold_visits_all;
          Alcotest.test_case "concurrent expansion" `Quick
            concurrent_expansion;
        ] );
      ( "insert point search",
        [
          Alcotest.test_case "binary search on path" `Quick
            binary_search_on_path;
          Alcotest.test_case "expands when no leaf fits" `Quick
            find_insert_point_expands;
          Alcotest.test_case "fallback searches the leftmost chain" `Quick
            fallback_searches_leftmost_chain;
          Alcotest.test_case "fallback grows past the leftmost leaf" `Quick
            fallback_grows_past_leftmost_leaf;
          Alcotest.test_case "shallow node within bounds" `Quick
            shallow_node_bounds;
          Alcotest.test_case "probes leaves" `Quick
            find_insert_point_probes_leaves;
          Alcotest.test_case "ge handed the visited slots" `Quick
            probe_hands_visited_slots;
          Alcotest.test_case "deterministic with seeded rand" `Quick
            deterministic_with_rand;
          QCheck_alcotest.to_alcotest prop_insert_point_contract;
          QCheck_alcotest.to_alcotest prop_binary_search_boundary;
        ] );
    ]
