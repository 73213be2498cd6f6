(* Tests for the lock-free mound (single-threaded semantics; concurrency
   is covered in test_concurrent and test_sim_concurrent). *)

module L = Mound.Lf_int

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sut () = Harness.Pq.of_mound (module L) (L.create ())

let prop_model =
  QCheck.Test.make ~name:"matches sorted-multiset model" ~count:120
    Model.ops_arbitrary
    (fun script -> Model.agrees_with_model make_sut script)

let heapsort () =
  let rng = Prng.create 32L in
  let input = Array.init 20_000 (fun _ -> Prng.int rng 1_000_000) in
  let q = L.create () in
  Array.iter (L.insert q) input;
  check "invariant" true (L.check q);
  check_int "size" 20_000 (L.size q);
  let rec drain acc =
    match L.extract_min q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check "sorted" true (drain [] = List.sort compare (Array.to_list input))

let empty_behaviour () =
  let q = L.create () in
  check "extract" true (L.extract_min q = None);
  check "peek" true (L.peek_min q = None);
  check "many" true (L.extract_many q = []);
  check "approx" true (L.extract_approx q = None);
  check "is_empty" true (L.is_empty q)

(* The seq counter increments on every update — observable through
   repeated insert/extract at the root. *)
let duplicates_and_root_list () =
  let q = L.create () in
  for _ = 1 to 64 do
    L.insert q 1
  done;
  (* all equal keys pile up; extract_many must fetch a nonempty sorted
     batch whose head is 1 *)
  let batch = L.extract_many q in
  check "nonempty" true (batch <> []);
  check "all ones" true (List.for_all (( = ) 1) batch);
  check "conservation" true (List.length batch + L.size q = 64)


let insert_many_roundtrip () =
  let q = L.create () in
  let rng = Prng.create 14L in
  for _ = 1 to 2000 do
    L.insert q (Prng.int rng 100_000)
  done;
  (* extract_many / insert_many round trips conserve the multiset *)
  for _ = 1 to 50 do
    let b = L.extract_many q in
    L.insert_many q b
  done;
  check "invariant" true (L.check q);
  check_int "size conserved" 2000 (L.size q);
  let rec drain acc =
    match L.extract_min q with None -> acc | Some v -> drain (v :: acc)
  in
  let out = drain [] in
  check "still a priority queue" true
    (List.rev out = List.sort compare out)

let insert_many_concurrent_sim () =
  let module LS = Mound.Lf.Make (Sim.Runtime) (Mound.Int_ord) in
  List.iter
    (fun seed ->
      let q = LS.create () in
      let per = 40 in
      let body tid =
        for i = 0 to per - 1 do
          let base = ((tid * per) + i) * 4 in
          LS.insert_many q [ base; base + 1; base + 2 ]
        done
      in
      ignore (Sim.Sched.run ~seed (Array.make 4 body));
      check "invariant" true (LS.check q);
      check_int "all elements" (4 * per * 3) (LS.size q))
    [ 11L; 12L; 13L ]

let interleaved_ops_invariant () =
  let q = L.create () in
  let rng = Prng.create 33L in
  for _ = 1 to 30_000 do
    match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 -> L.insert q (Prng.int rng 100_000)
    | 5 | 6 | 7 -> ignore (L.extract_min q)
    | 8 -> ignore (L.extract_many q)
    | _ -> ignore (L.extract_approx q)
  done;
  check "invariant" true (L.check q)

(* After any quiescent point no node should remain dirty: every operation
   cleans up after itself. *)
let no_dirty_after_quiesce () =
  let module Lf = Mound.Lf.Make (Runtime.Real) (Mound.Int_ord) in
  let q = Lf.create () in
  let rng = Prng.create 34L in
  for _ = 1 to 5_000 do
    if Prng.int rng 2 = 0 then Lf.insert q (Prng.int rng 1000)
    else ignore (Lf.extract_min q)
  done;
  let dirty =
    Lf.fold_nodes q (fun acc _ _ -> acc) 0 |> fun _ ->
    (* fold_nodes hides the dirty bit; use check, which requires the mound
       property on all non-dirty parents, plus peek which cleans the root *)
    ignore (Lf.peek_min q);
    Lf.check q
  in
  check "clean and consistent" true dirty

let generic_element_type () =
  let module Ord = struct
    type t = float * string

    let compare = compare
  end in
  let module FM = Mound.Lf.Make (Runtime.Real) (Ord) in
  let q = FM.create () in
  FM.insert q (3.14, "pi");
  FM.insert q (2.71, "e");
  FM.insert q (1.41, "sqrt2");
  check "generic min" true (FM.extract_min q = Some (1.41, "sqrt2"));
  check "generic order" true (FM.extract_min q = Some (2.71, "e"))

let grows_under_increasing_inserts () =
  let q = L.create () in
  for v = 1 to 2_000 do
    L.insert q v
  done;
  check "depth grew" true (L.depth q > 5);
  check "invariant" true (L.check q)

(* The flat node layout, pinned on one domain: 2^12 seeded keys filled,
   then drained. A tree row holds each node's Mcas cell itself, and the
   node record carries its list's head, so a filled mound keeps about
   6.3 reachable words per element (8.5 with the per-node id record and
   the head in a list cell). An [insert] allocates about 37 words (its
   record, list cell, DCSS and share of the rows; 42 with a probe
   closure per insert) and an [extract_min] about 310 (a DCAS and two
   fresh records per [moundify] level). *)
let keys_for_budget () =
  let rng = Prng.create 7L in
  Array.init (1 lsl 12) (fun _ -> Prng.int rng 1_000_000)

let allocation_budget () =
  let keys = keys_for_budget () in
  let n = Array.length keys in
  let q = L.create () in
  let w0 = Gc.minor_words () in
  Array.iter (L.insert q) keys;
  let w1 = Gc.minor_words () in
  let extracted = ref 0 in
  while L.extract_min q <> None do
    incr extracted
  done;
  let w2 = Gc.minor_words () in
  let per_insert = (w1 -. w0) /. float_of_int n
  and per_extract = (w2 -. w1) /. float_of_int n in
  Printf.printf "words per op: insert %.1f, extract_min %.1f\n" per_insert
    per_extract;
  check_int "drained every key" n !extracted;
  check "insert <= 40 words" true (per_insert <= 40.);
  check "extract_min <= 320 words" true (per_extract <= 320.)

let words_per_element () =
  let keys = keys_for_budget () in
  let q = L.create () in
  Array.iter (L.insert q) keys;
  let per_elem =
    float_of_int (Obj.reachable_words (Obj.repr q))
    /. float_of_int (Array.length keys)
  in
  Printf.printf "reachable words per element: %.2f\n" per_elem;
  check_int "size" (Array.length keys) (L.size q);
  check "<= 7 words per element" true (per_elem <= 7.)

let () =
  Alcotest.run "mound_lf"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          Alcotest.test_case "heapsort 20k" `Quick heapsort;
          Alcotest.test_case "empty behaviour" `Quick empty_behaviour;
          Alcotest.test_case "duplicates via root list" `Quick
            duplicates_and_root_list;
          Alcotest.test_case "insert_many roundtrip" `Quick
            insert_many_roundtrip;
          Alcotest.test_case "insert_many concurrent (sim)" `Quick
            insert_many_concurrent_sim;
        ] );
      ( "structure",
        [
          Alcotest.test_case "interleaved ops invariant" `Quick
            interleaved_ops_invariant;
          Alcotest.test_case "no dirty after quiesce" `Quick
            no_dirty_after_quiesce;
          Alcotest.test_case "generic element type" `Quick
            generic_element_type;
          Alcotest.test_case "grows under increasing inserts" `Quick
            grows_under_increasing_inserts;
          Alcotest.test_case "allocation budget" `Quick allocation_budget;
          Alcotest.test_case "words per element" `Quick words_per_element;
        ] );
    ]
