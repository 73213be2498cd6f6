(* Tests for the baseline priority queues: sequential heap, coarse heap,
   Hunt heap, skiplist. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sut_of_seq_heap () =
  let module H = Baselines.Seq_heap_int in
  let q = H.create () in
  Harness.Pq.of_basic ~insert:(H.insert q)
    ~extract_min:(fun () -> H.extract_min q)
    ~peek_min:(fun () -> H.peek_min q)
    ~size:(fun () -> H.size q)
    ~check:(fun () -> H.check q)

(* The other baselines through the handles the experiment drivers use. *)
let sut_of (maker : Harness.Pq.maker) () = maker.make ~capacity:4096

let model_test name make_sut =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(name ^ " matches sorted-multiset model")
       ~count:100 Model.ops_arbitrary
       (fun script -> Model.agrees_with_model make_sut script))

let heapsort_test (name, mk_insert_extract) () =
  let insert, extract = mk_insert_extract () in
  let rng = Prng.create 55L in
  let input = Array.init 10_000 (fun _ -> Prng.int rng 1_000_000) in
  Array.iter insert input;
  let rec drain acc =
    match extract () with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check (name ^ " sorts") true
    (drain [] = List.sort compare (Array.to_list input))

(* --- spinlock --- *)

let spinlock_mutual_exclusion () =
  let module L = Baselines.Spinlock.Make (Runtime.Real) in
  let lock = L.create () in
  let counter = ref 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              L.with_lock lock (fun () -> incr counter)
            done))
  in
  List.iter Domain.join doms;
  check_int "no lost updates under the lock" 40_000 !counter

let spinlock_trylock_and_exceptions () =
  let module L = Baselines.Spinlock.Make (Runtime.Real) in
  let lock = L.create () in
  check "try_acquire free" true (L.try_acquire lock);
  check "try_acquire held" false (L.try_acquire lock);
  L.release lock;
  check "reacquire after release" true (L.try_acquire lock);
  L.release lock;
  (* with_lock releases on exception *)
  (try L.with_lock lock (fun () -> failwith "boom") with Failure _ -> ());
  check "released after exception" true (L.try_acquire lock);
  L.release lock

let spinlock_sim_fairness () =
  let module L = Baselines.Spinlock.Make (Sim.Runtime) in
  let lock = L.create () in
  let counts = Array.make 6 0 in
  let body tid =
    for _ = 1 to 200 do
      L.with_lock lock (fun () -> counts.(tid) <- counts.(tid) + 1)
    done
  in
  ignore (Sim.Sched.run ~profile:Sim.Profile.x86 ~seed:2L (Array.make 6 body));
  Array.iter (fun c -> check_int "every thread completed" 200 c) counts

(* --- Hunt-specific --- *)

module HH = Baselines.Hunt_heap_int

let hunt_position_bijection () =
  (* position is a bijection from [1..2^k-1] onto itself *)
  let module H = Baselines.Hunt_heap.Make (Runtime.Real) (Mound.Int_ord) in
  let n = (1 lsl 10) - 1 in
  let seen = Array.make (n + 1) false in
  for c = 1 to n do
    let p = H.position c in
    check "in range" true (p >= 1 && p <= n);
    check "not seen" false seen.(p);
    seen.(p) <- true
  done

let hunt_position_scatters () =
  (* consecutive counts within one level land in different subtrees:
     positions 2^k and 2^k+1 differ in their top-level branch *)
  let module H = Baselines.Hunt_heap.Make (Runtime.Real) (Mound.Int_ord) in
  let l = H.position 8 and r = H.position 9 in
  (* 8 -> offset 0 -> 8; 9 -> offset 1 reversed over 3 bits -> 12 *)
  check_int "first of level" 8 l;
  check_int "second scattered" 12 r

let hunt_capacity_rounding () =
  (* capacity is rounded to 2^k - 1 so bit-reversed slots stay in range *)
  let q = HH.create ~capacity:5 () in
  for v = 1 to 7 do
    HH.insert q v
  done;
  check_int "7 fit (rounded to 7)" 7 (HH.size q);
  check "overflow detected" true
    (try
       HH.insert q 8;
       false
     with Failure _ -> true)

let hunt_empty_and_refill () =
  let q = HH.create ~capacity:63 () in
  check "empty" true (HH.extract_min q = None);
  HH.insert q 5;
  check "single" true (HH.extract_min q = Some 5);
  check "empty again" true (HH.extract_min q = None);
  for v = 10 downto 1 do
    HH.insert q v
  done;
  check "invariant" true (HH.check q);
  check "min" true (HH.extract_min q = Some 1);
  check "next" true (HH.extract_min q = Some 2)

(* --- skiplist-specific --- *)

module SL = Baselines.Skiplist_pq_int

let skiplist_duplicates () =
  let q = SL.create () in
  for _ = 1 to 50 do
    SL.insert q 3
  done;
  for _ = 1 to 25 do
    SL.insert q 1
  done;
  check_int "size" 75 (SL.size q);
  for _ = 1 to 25 do
    check "ones first" true (SL.extract_min q = Some 1)
  done;
  for _ = 1 to 50 do
    check "threes" true (SL.extract_min q = Some 3)
  done;
  check "empty" true (SL.extract_min q = None)

let skiplist_interleaved () =
  let q = SL.create () in
  let rng = Prng.create 66L in
  let model = ref [] in
  for _ = 1 to 10_000 do
    if Prng.int rng 2 = 0 then begin
      let v = Prng.int rng 1000 in
      SL.insert q v;
      model := v :: !model
    end
    else begin
      let got = SL.extract_min q in
      let sorted = List.sort compare !model in
      match (got, sorted) with
      | None, [] -> ()
      | Some v, m :: rest when v = m -> model := rest
      | _ -> Alcotest.fail "diverged from model"
    end
  done;
  check "final invariant" true (SL.check q);
  check "final contents" true (SL.to_list q = List.sort compare !model)

let skiplist_to_list_sorted () =
  let q = SL.create () in
  let rng = Prng.create 67L in
  for _ = 1 to 1000 do
    SL.insert q (Prng.int rng 500)
  done;
  let l = SL.to_list q in
  check "sorted" true (l = List.sort compare l);
  check_int "complete" 1000 (List.length l)

let () =
  Alcotest.run "baselines"
    [
      ( "model equivalence",
        [
          model_test "seq_heap" sut_of_seq_heap;
          model_test "coarse_heap" (sut_of Harness.Pq.On_real.coarse);
          model_test "hunt_heap" (sut_of Harness.Pq.On_real.hunt);
          model_test "skiplist" (sut_of Harness.Pq.On_real.skiplist);
          model_test "skiplist_lock" (sut_of Harness.Pq.On_real.skiplist_lock);
        ] );
      ( "heapsort",
        [
          Alcotest.test_case "seq_heap" `Quick
            (heapsort_test
               ( "seq_heap",
                 fun () ->
                   let module H = Baselines.Seq_heap_int in
                   let q = H.create () in
                   (H.insert q, fun () -> H.extract_min q) ));
          Alcotest.test_case "hunt" `Quick
            (heapsort_test
               ( "hunt",
                 fun () ->
                   let q = HH.create ~capacity:16384 () in
                   (HH.insert q, fun () -> HH.extract_min q) ));
          Alcotest.test_case "skiplist" `Quick
            (heapsort_test
               ( "skiplist",
                 fun () ->
                   let q = SL.create () in
                   (SL.insert q, fun () -> SL.extract_min q) ));
          Alcotest.test_case "skiplist_lock" `Quick
            (heapsort_test
               ( "skiplist_lock",
                 fun () ->
                   let module SLL = Baselines.Skiplist_lock_pq_int in
                   let q = SLL.create () in
                   (SLL.insert q, fun () -> SLL.extract_min q) ));
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion (domains)" `Quick
            spinlock_mutual_exclusion;
          Alcotest.test_case "try_acquire and exceptions" `Quick
            spinlock_trylock_and_exceptions;
          Alcotest.test_case "fairness under sim" `Quick spinlock_sim_fairness;
        ] );
      ( "hunt specifics",
        [
          Alcotest.test_case "position bijection" `Quick
            hunt_position_bijection;
          Alcotest.test_case "position scatters" `Quick hunt_position_scatters;
          Alcotest.test_case "capacity rounding" `Quick hunt_capacity_rounding;
          Alcotest.test_case "empty and refill" `Quick hunt_empty_and_refill;
        ] );
      ( "skiplist specifics",
        [
          Alcotest.test_case "duplicates" `Quick skiplist_duplicates;
          Alcotest.test_case "interleaved vs model" `Quick skiplist_interleaved;
          Alcotest.test_case "to_list sorted" `Quick skiplist_to_list_sorted;
        ] );
    ]
