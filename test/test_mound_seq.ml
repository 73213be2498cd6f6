(* Tests for the sequential mound. *)

module S = Mound.Seq_int

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sut () = Harness.Pq.of_mound (module S) (S.create ~seed:21L ())

(* The placement oracle: a sequential mound over the same tree and the
   same PRNG stream, written in the paper's swap-per-level form. Its
   probe hands [ge] node indices and reads each node with [T.get]; its
   moundify swaps the node's list with the smaller child's, one level at
   a time, re-reading the sinking list at every level. [S] sifts with a
   hole and hands [ge] the slot; both must put every list in the same
   node, which is what keeps Tables I–IV's numbers. *)
module Ref = struct
  module T = Mound.Tree.Make (Runtime.Real)

  type t = { tree : int list T.t; rng : Prng.t }

  let create ~seed =
    let rng = Prng.create seed in
    { tree = T.create ~rand:(fun b -> Prng.int rng b) (fun () -> []); rng }

  (* Lists ordered by their heads, an empty list being ⊤. *)
  let head_compare a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> 1
    | _ :: _, [] -> -1
    | x :: _, y :: _ -> compare x y

  let rec probe_leaves ~ge t first_leaf k =
    if k = 0 then 0
    else
      let leaf = first_leaf + Prng.int t.rng first_leaf in
      if ge leaf then leaf else probe_leaves ~ge t first_leaf (k - 1)

  let binary_search ~ge leaf d =
    let lo = ref 0 and hi = ref (d - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ge (leaf lsr (d - 1 - mid)) then hi := mid else lo := mid + 1
    done;
    leaf lsr (d - 1 - !lo)

  let rec find_insert_point t ~ge =
    let d = T.depth t.tree in
    let first_leaf = 1 lsl (d - 1) in
    match probe_leaves ~ge t first_leaf Mound.Intf.default_threshold with
    | 0 ->
        T.expand t.tree d;
        find_insert_point t ~ge
    | leaf -> binary_search ~ge leaf d

  let set t i l =
    let level = T.level_of i in
    (T.row t.tree ~level).(i - (1 lsl level)) <- l

  let rec put t hd rest =
    let ge i = Mound.Intf.Sorted.head_ge compare (T.get t.tree i) hd in
    let c = find_insert_point t ~ge in
    let l = T.get t.tree c in
    set t c (hd :: Mound.Intf.Sorted.splice compare rest l);
    match Mound.Intf.Sorted.remainder compare rest l with
    | [] -> ()
    | hd :: rest -> put t hd rest

  let insert t v = put t v []

  let rec moundify t n =
    if not (T.is_leaf n ~depth:(T.depth t.tree)) then begin
      let ln = T.get t.tree n
      and ll = T.get t.tree (2 * n)
      and lr = T.get t.tree ((2 * n) + 1) in
      if head_compare ll lr <= 0 && head_compare ll ln < 0 then begin
        set t n ll;
        set t (2 * n) ln;
        moundify t (2 * n)
      end
      else if head_compare lr ll < 0 && head_compare lr ln < 0 then begin
        set t n lr;
        set t ((2 * n) + 1) ln;
        moundify t ((2 * n) + 1)
      end
    end

  let take t n ~all =
    let l = T.get t.tree n in
    (match l with
    | [] -> ()
    | _ :: tl ->
        set t n (if all then [] else tl);
        moundify t n);
    l

  let extract_min t = Mound.Intf.Sorted.value (take t 1 ~all:false)
  let extract_many t = take t 1 ~all:true

  let extract_approx ?(max_level = 2) t =
    let lvl = min max_level (T.depth t.tree - 1) in
    let n = 1 + Prng.int t.rng ((1 lsl (lvl + 1)) - 1) in
    Mound.Intf.Sorted.value
      (match take t n ~all:false with [] -> take t 1 ~all:false | l -> l)
end

let prop_model =
  QCheck.Test.make ~name:"matches sorted-multiset model" ~count:150
    Model.ops_arbitrary
    (fun script -> Model.agrees_with_model make_sut script)

let heapsort () =
  let rng = Prng.create 31L in
  let input = Array.init 30_000 (fun _ -> Prng.int rng 1_000_000 - 500_000) in
  let q = S.create ~seed:1L () in
  Array.iter (S.insert q) input;
  check "invariant" true (S.check q);
  check_int "size" 30_000 (S.size q);
  let rec drain acc =
    match S.extract_min q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  let out = drain [] in
  check "sorted output" true (out = List.sort compare (Array.to_list input));
  check "empty at end" true (S.is_empty q)

let duplicates () =
  let q = S.create ~seed:2L () in
  for _ = 1 to 100 do
    S.insert q 7
  done;
  check_int "size" 100 (S.size q);
  for _ = 1 to 100 do
    check "dup extraction" true (S.extract_min q = Some 7)
  done;
  check "exhausted" true (S.extract_min q = None)

let empty_behaviour () =
  let q = S.create () in
  check "extract empty" true (S.extract_min q = None);
  check "peek empty" true (S.peek_min q = None);
  check "extract_many empty" true (S.extract_many q = []);
  check "extract_approx empty" true (S.extract_approx q = None);
  check "is_empty" true (S.is_empty q);
  check_int "size 0" 0 (S.size q);
  check "check on empty" true (S.check q)

(* The paper's best case: decreasing inserts always go to the root, so
   the mound never grows — one sorted list at the root (§VI-B fn. 1). *)
let decreasing_stays_shallow () =
  let q = S.create ~seed:3L () in
  for v = 10_000 downto 1 do
    S.insert q v
  done;
  check_int "depth stays 1" 1 (S.depth q);
  check "still correct" true (S.extract_min q = Some 1)

(* The paper's worst case: increasing inserts make every list a
   singleton, depth one more than a heap would need. *)
let increasing_singleton_lists () =
  let n = 4096 in
  let q = S.create ~seed:4L () in
  for v = 1 to n do
    S.insert q v
  done;
  let max_list =
    S.fold_nodes q (fun m _ l -> max m (List.length l)) 0
  in
  check_int "all lists singleton" 1 max_list;
  (* a heap would need 12 levels for 4096; allow the paper's +2 or so *)
  check "depth near log n" true (S.depth q <= 15);
  check "invariant" true (S.check q)

let random_lists_get_long () =
  let q = S.create ~seed:5L () in
  let rng = Prng.create 6L in
  for _ = 1 to 1 lsl 16 do
    S.insert q (Prng.int rng (1 lsl 30))
  done;
  let max_list = S.fold_nodes q (fun m _ l -> max m (List.length l)) 0 in
  check "random inserts build lists > 1" true (max_list > 2);
  (* mound depth beats a binary heap's for the same element count
     (16 levels) because lists hold multiple elements *)
  check "depth below heap depth" true (S.depth q <= 17)


let insert_many_behaviour () =
  let q = S.create ~seed:12L () in
  (* splice-friendly: narrow batch into an empty mound *)
  S.insert_many q [ 1; 2; 3 ];
  check "invariant" true (S.check q);
  check_int "size" 3 (S.size q);
  (* wide batch over existing content: falls back but stays correct *)
  let rng = Prng.create 13L in
  for _ = 1 to 500 do
    S.insert q (Prng.int rng 1000)
  done;
  S.insert_many q [ 0; 250; 500; 750; 999 ];
  check "invariant after wide batch" true (S.check q);
  check_int "size" 508 (S.size q);
  S.insert_many q [];
  check_int "empty batch no-op" 508 (S.size q);
  check "min" true (S.extract_min q = Some 0)

let extract_many_takes_root_list () =
  let q = S.create ~seed:7L () in
  List.iter (S.insert q) [ 5; 3; 9; 1; 1; 2 ];
  let batch = S.extract_many q in
  check "batch sorted" true (batch = List.sort compare batch);
  check "batch head was minimum" true (List.hd batch = 1);
  check "invariant after" true (S.check q);
  check_int "conservation" 6 (List.length batch + S.size q)

let extract_approx_member () =
  let q = S.create ~seed:8L () in
  let inserted = List.init 500 (fun i -> i * 3) in
  List.iter (S.insert q) inserted;
  match S.extract_approx q with
  | None -> Alcotest.fail "nonempty"
  | Some v ->
      check "member" true (List.mem v inserted);
      check_int "size decremented" 499 (S.size q);
      check "invariant" true (S.check q)

let mixed_churn_keeps_invariant () =
  let q = S.create ~seed:9L () in
  let rng = Prng.create 10L in
  for _ = 1 to 50_000 do
    if Prng.int rng 2 = 0 then S.insert q (Prng.int rng 100_000)
    else ignore (S.extract_min q)
  done;
  check "invariant after churn" true (S.check q)

let deterministic_given_seed () =
  let build () =
    let q = S.create ~seed:77L () in
    let rng = Prng.create 78L in
    for _ = 1 to 5_000 do
      S.insert q (Prng.int rng 1_000_000)
    done;
    (S.depth q, S.fold_nodes q (fun acc i l -> (i, l) :: acc) [])
  in
  check "identical structure" true (build () = build ())

(* [S] and [Ref] side by side from one seed: after every operation the
   two return the same element and hold the same list in every node. *)
let placement_matches_oracle () =
  let q = S.create ~seed:41L () and r = Ref.create ~seed:41L in
  let rng = Prng.create 42L in
  let step = ref 0 in
  let same what a b =
    incr step;
    if a <> b then Alcotest.failf "%s (operation %d): results differ" what !step;
    if S.depth q <> Ref.T.depth r.tree then
      Alcotest.failf "%s (operation %d): depths differ" what !step;
    if not (S.fold_nodes q (fun ok i l -> ok && l = Ref.T.get r.tree i) true)
    then Alcotest.failf "%s (operation %d): node lists differ" what !step
  in
  let insert v =
    S.insert q v;
    Ref.insert r v;
    same "insert" () ()
  in
  let fill n =
    for _ = 1 to n do
      insert (Prng.int rng 100_000)
    done
  in
  fill 2048;
  while not (S.is_empty q) do
    same "extract_min" (S.extract_min q) (Ref.extract_min r)
  done;
  same "extract_min empty" (S.extract_min q) (Ref.extract_min r);
  fill 2048;
  while not (S.is_empty q) do
    same "extract_many" (S.extract_many q) (Ref.extract_many r)
  done;
  fill 2048;
  for _ = 1 to 1024 do
    same "extract_approx" (S.extract_approx q) (Ref.extract_approx r)
  done;
  for _ = 1 to 4096 do
    if Prng.bool rng then insert (Prng.int rng 100_000)
    else same "churn extract_min" (S.extract_min q) (Ref.extract_min r)
  done;
  check "invariant" true (S.check q)

let threshold_and_depth_args () =
  let q = S.create ~threshold:1 ~init_depth:4 ~seed:1L () in
  check_int "initial depth honored" 4 (S.depth q);
  for v = 1 to 1000 do
    S.insert q v
  done;
  check "works with threshold 1" true (S.check q)

(* Minor words per operation: a seeded fill of 2^12 keys, then the
   drain to empty. An extract allocates only the [Some] it returns (the
   lists live in the tree rows, the head comparisons box nothing, the
   Prng draws are unboxed); an insert, its list cell and its share of
   the rows the tree grows: the search takes the key beside the mound's
   one static predicate, so no per-insert closure, and returns a bare
   node index (3.1 words measured; 8.1 with a closure per insert). *)
let allocation_budget () =
  let n = 1 lsl 12 in
  let rng = Prng.create 7L in
  let keys = Array.init n (fun _ -> Prng.int rng 1_000_000) in
  let q = S.create () in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    S.insert q keys.(i)
  done;
  let w1 = Gc.minor_words () in
  let extracted = ref 0 in
  while S.extract_min q <> None do
    incr extracted
  done;
  let w2 = Gc.minor_words () in
  let per_insert = (w1 -. w0) /. float_of_int n
  and per_extract = (w2 -. w1) /. float_of_int n in
  Printf.printf "words per op: insert %.1f, extract_min %.1f\n" per_insert
    per_extract;
  check_int "drained every key" n !extracted;
  check "insert <= 4 words" true (per_insert <= 4.);
  check "extract_min <= 2 words" true (per_extract <= 2.)

let () =
  Alcotest.run "mound_seq"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          Alcotest.test_case "heapsort 30k" `Quick heapsort;
          Alcotest.test_case "duplicates" `Quick duplicates;
          Alcotest.test_case "empty behaviour" `Quick empty_behaviour;
        ] );
      ( "randomized shape (paper §VI-B)",
        [
          Alcotest.test_case "decreasing stays depth 1" `Quick
            decreasing_stays_shallow;
          Alcotest.test_case "increasing singleton lists" `Quick
            increasing_singleton_lists;
          Alcotest.test_case "random builds long lists" `Quick
            random_lists_get_long;
          Alcotest.test_case "deterministic given seed" `Quick
            deterministic_given_seed;
          Alcotest.test_case "placement matches the swap-per-level oracle"
            `Quick placement_matches_oracle;
        ] );
      ( "extensions (paper §V)",
        [
          Alcotest.test_case "extract_many = root list" `Quick
            extract_many_takes_root_list;
          Alcotest.test_case "insert_many" `Quick insert_many_behaviour;
          Alcotest.test_case "extract_approx returns member" `Quick
            extract_approx_member;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "mixed churn invariant" `Quick
            mixed_churn_keeps_invariant;
          Alcotest.test_case "threshold/init_depth args" `Quick
            threshold_and_depth_args;
          Alcotest.test_case "allocation budget" `Quick allocation_budget;
        ] );
    ]
