(* Tests for the fine-grained locking mound (single-threaded semantics;
   concurrency is covered in test_concurrent and test_sim_concurrent). *)

module K = Mound.Lock_int

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sut () = Harness.Pq.of_mound (module K) (K.create ())

let prop_model =
  QCheck.Test.make ~name:"matches sorted-multiset model" ~count:120
    Model.ops_arbitrary
    (fun script -> Model.agrees_with_model make_sut script)

let heapsort () =
  let rng = Prng.create 41L in
  let input = Array.init 20_000 (fun _ -> Prng.int rng 1_000_000) in
  let q = K.create () in
  Array.iter (K.insert q) input;
  check "invariant (also: all unlocked)" true (K.check q);
  let rec drain acc =
    match K.extract_min q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check "sorted" true (drain [] = List.sort compare (Array.to_list input))

let empty_behaviour () =
  let q = K.create () in
  check "extract" true (K.extract_min q = None);
  check "peek" true (K.peek_min q = None);
  check "many" true (K.extract_many q = []);
  check "is_empty" true (K.is_empty q);
  (* the empty extract must release the root lock: a second call works *)
  check "extract again" true (K.extract_min q = None)

let locks_released_after_each_op () =
  (* K.check verifies no node is locked; interleave every operation *)
  let q = K.create () in
  let rng = Prng.create 42L in
  for i = 1 to 5_000 do
    (match Prng.int rng 5 with
    | 0 | 1 -> K.insert q (Prng.int rng 10_000)
    | 2 -> ignore (K.extract_min q)
    | 3 -> ignore (K.extract_many q)
    | _ -> ignore (K.extract_approx q));
    if i mod 500 = 0 then check "all unlocked" true (K.check q)
  done

let extract_many_then_refill () =
  let q = K.create () in
  for v = 1 to 100 do
    K.insert q v
  done;
  let b1 = K.extract_many q in
  check "first batch has global min" true (List.hd b1 = 1);
  for v = 101 to 200 do
    K.insert q v
  done;
  check "invariant after refill" true (K.check q);
  check_int "conservation" 200 (K.size q + List.length b1)


let insert_many_roundtrip () =
  let q = K.create () in
  let rng = Prng.create 15L in
  for _ = 1 to 2000 do
    K.insert q (Prng.int rng 100_000)
  done;
  for _ = 1 to 50 do
    let b = K.extract_many q in
    K.insert_many q b
  done;
  check "invariant (and all unlocked)" true (K.check q);
  check_int "size conserved" 2000 (K.size q)

let mirrors_lf_results () =
  (* both concurrent variants drain identically from the same inputs *)
  let module L = Mound.Lf_int in
  let rng = Prng.create 43L in
  let input = Array.init 5_000 (fun _ -> Prng.int rng 50_000) in
  let lf = L.create () and lk = K.create () in
  Array.iter (fun v -> L.insert lf v; K.insert lk v) input;
  let rec drain f acc =
    match f () with None -> List.rev acc | Some v -> drain f (v :: acc)
  in
  check "identical drains" true
    (drain (fun () -> L.extract_min lf) [] = drain (fun () -> K.extract_min lk) [])

(* Minor words per operation on one domain: a seeded fill of 2^12 keys,
   then the drain to empty. What is left is the protocol's own records
   (one witness per acquisition, one per restamp and unlock), so a
   per-acquisition closure, a per-insert probe predicate, an option per
   probed node or a boxed list head cannot creep back into the hot paths
   unnoticed (20.1 words per insert measured; 25.1 with a closure per
   insert). *)
let allocation_budget () =
  let n = 1 lsl 12 in
  let rng = Prng.create 7L in
  let keys = Array.init n (fun _ -> Prng.int rng 1_000_000) in
  let q = K.create () in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    K.insert q keys.(i)
  done;
  let w1 = Gc.minor_words () in
  let extracted = ref 0 in
  while K.extract_min q <> None do
    incr extracted
  done;
  let w2 = Gc.minor_words () in
  let per_insert = (w1 -. w0) /. float_of_int n
  and per_extract = (w2 -. w1) /. float_of_int n in
  Printf.printf "words per op: insert %.1f, extract_min %.1f\n" per_insert
    per_extract;
  check_int "drained every key" n !extracted;
  check "insert <= 22 words" true (per_insert <= 22.);
  check "extract_min <= 210 words" true (per_extract <= 210.)

let () =
  Alcotest.run "mound_lock"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          Alcotest.test_case "heapsort 20k" `Quick heapsort;
          Alcotest.test_case "empty behaviour" `Quick empty_behaviour;
        ] );
      ( "locking discipline",
        [
          Alcotest.test_case "locks released after ops" `Quick
            locks_released_after_each_op;
          Alcotest.test_case "extract_many then refill" `Quick
            extract_many_then_refill;
          Alcotest.test_case "insert_many roundtrip" `Quick
            insert_many_roundtrip;
          Alcotest.test_case "mirrors lock-free results" `Quick
            mirrors_lf_results;
          Alcotest.test_case "allocation budget" `Quick allocation_budget;
        ] );
    ]
