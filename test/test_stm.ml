(* Tests for the TL2-style STM and the STM-based heap. *)

module S = Stm.Make (Runtime.Real)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let read_write_basics () =
  let a = S.make 1 and b = S.make 2 in
  let sum = S.atomically (fun tx -> S.read tx a + S.read tx b) in
  check_int "read" 3 sum;
  S.atomically (fun tx ->
      S.write tx a 10;
      S.write tx b 20);
  check_int "a" 10 (S.peek a);
  check_int "b" 20 (S.peek b)

let read_own_writes () =
  let a = S.make 1 in
  let v =
    S.atomically (fun tx ->
        S.write tx a 5;
        S.write tx a 7;
        S.read tx a)
  in
  check_int "sees own write (latest)" 7 v;
  check_int "committed" 7 (S.peek a)

let transfer_preserves_sum () =
  let a = S.make 1000 and b = S.make 0 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed:8L ~id:d in
            for _ = 1 to 500 do
              let amt = 1 + Prng.int rng 3 in
              S.atomically (fun tx ->
                  let va = S.read tx a and vb = S.read tx b in
                  S.write tx a (va - amt);
                  S.write tx b (vb + amt))
            done))
  in
  List.iter Domain.join doms;
  check_int "sum invariant" 1000 (S.peek a + S.peek b)

let counter_no_lost_updates () =
  let c = S.make 0 in
  let per = 1000 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              S.atomically (fun tx -> S.write tx c (S.read tx c + 1))
            done))
  in
  List.iter Domain.join doms;
  check_int "exact count" (4 * per) (S.peek c)

let consistent_snapshots () =
  (* invariant a + b = 100 maintained by writers; readers must never
     observe a violation inside a transaction (opacity) *)
  let a = S.make 50 and b = S.make 50 in
  let violations = Atomic.make 0 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Prng.create 77L in
        for _ = 1 to 3000 do
          let d = Prng.int rng 10 - 5 in
          S.atomically (fun tx ->
              S.write tx a (S.read tx a + d);
              S.write tx b (S.read tx b - d))
        done;
        Atomic.set stop true)
  in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let sum = S.atomically (fun tx -> S.read tx a + S.read tx b) in
              if sum <> 100 then Atomic.incr violations
            done))
  in
  Domain.join writer;
  List.iter Domain.join readers;
  check_int "no torn snapshots" 0 (Atomic.get violations)

let sim_deterministic_transfers () =
  let module SS = Stm.Make (Sim.Runtime) in
  let a = SS.make 300 and b = SS.make 0 in
  let body _ =
    for _ = 1 to 100 do
      SS.atomically (fun tx ->
          SS.write tx a (SS.read tx a - 1);
          SS.write tx b (SS.read tx b + 1))
    done
  in
  ignore (Sim.Sched.run ~profile:Sim.Profile.x86 ~seed:3L (Array.make 3 body));
  check_int "a" 0 (SS.peek a);
  check_int "b" 300 (SS.peek b)

(* ---- STM heap ---- *)

module H = Baselines.Stm_heap_int

let heap_sut () = Harness.Pq.On_real.stm_heap.make ~capacity:4096

let prop_heap_model =
  QCheck.Test.make ~name:"stm heap matches sorted-multiset model" ~count:80
    Model.ops_arbitrary
    (fun script -> Model.agrees_with_model heap_sut script)

let heap_sorts () =
  let q = H.create ~capacity:8192 () in
  let rng = Prng.create 12L in
  let input = Array.init 5_000 (fun _ -> Prng.int rng 1_000_000) in
  Array.iter (H.insert q) input;
  check "invariant" true (H.check q);
  let rec drain acc =
    match H.extract_min q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check "sorted" true (drain [] = List.sort compare (Array.to_list input))

let heap_concurrent_conservation () =
  let per = 800 in
  let q = H.create ~capacity:(8 * per) () in
  let got = Array.make 4 0 in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              H.insert q ((d * per) + i);
              if i land 1 = 0 then
                match H.extract_min q with
                | Some _ -> got.(d) <- got.(d) + 1
                | None -> ()
            done))
  in
  Array.iter Domain.join doms;
  check "invariant" true (H.check q);
  check_int "conservation" (4 * per)
    (Array.fold_left ( + ) 0 got + H.size q)

let heap_monotone_drain_sim () =
  (* single transactions make the STM heap linearizable: per-thread
     drains are monotone under every schedule *)
  let module HS = Baselines.Stm_heap.Make (Sim.Runtime) in
  List.iter
    (fun seed ->
      let q = HS.create ~capacity:1024 () in
      Sim.Sched.seed_ambient seed;
      let rng = Prng.create seed in
      let n = 300 in
      for _ = 1 to n do
        HS.insert q (Prng.int rng 10_000)
      done;
      let got = Array.make 4 [] in
      let body tid =
        let rec go () =
          match HS.extract_min q with
          | Some v ->
              got.(tid) <- v :: got.(tid);
              go ()
          | None -> ()
        in
        go ()
      in
      ignore (Sim.Sched.run ~seed (Array.make 4 body));
      check_int "drained" n
        (Array.fold_left (fun a l -> a + List.length l) 0 got);
      Array.iter
        (fun l ->
          let rec noninc = function
            | [] | [ _ ] -> true
            | a :: (b :: _ as r) -> a >= b && noninc r
          in
          check "monotone" true (noninc l))
        got)
    [ 5L; 6L; 7L; 8L ]

let () =
  Alcotest.run "stm"
    [
      ( "transactions",
        [
          Alcotest.test_case "read/write basics" `Quick read_write_basics;
          Alcotest.test_case "read own writes" `Quick read_own_writes;
          Alcotest.test_case "transfers (domains)" `Quick
            transfer_preserves_sum;
          Alcotest.test_case "counter (domains)" `Quick
            counter_no_lost_updates;
          Alcotest.test_case "opacity (domains)" `Quick consistent_snapshots;
          Alcotest.test_case "transfers (sim)" `Quick
            sim_deterministic_transfers;
        ] );
      ( "stm heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_model;
          Alcotest.test_case "heapsort 5k" `Quick heap_sorts;
          Alcotest.test_case "concurrent conservation" `Quick
            heap_concurrent_conservation;
          Alcotest.test_case "monotone drains (sim schedules)" `Quick
            heap_monotone_drain_sim;
        ] );
    ]
