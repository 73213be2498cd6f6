(* Concurrency tests on real OCaml domains over every structure of the
   extended set: multiset conservation, per-thread extraction
   monotonicity (for the makers that claim linearizability), and
   invariant checks at quiescent points. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let domains = 4

(* every value inserted (tagged by domain and sequence) is extracted at
   most once, and inserted+leftover = extracted exactly *)
let conservation (maker : Harness.Pq.maker) () =
  let per = 3_000 in
  let q = maker.make ~capacity:(domains * per * 2) in
  let extracted = Array.make domains [] in
  let doms =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed:13L ~id:d in
            for i = 0 to per - 1 do
              q.insert ((((d * per) + i) * 2) + 1);
              if Prng.int rng 3 > 0 then
                match q.extract_min () with
                | Some v -> extracted.(d) <- v :: extracted.(d)
                | None -> ()
            done))
  in
  Harness.Watchdog.join_all ~label:"conservation" doms;
  check (maker.name ^ " invariant") true (q.check ());
  let got = Array.fold_left (fun acc l -> List.rev_append l acc) [] extracted in
  let rec drain acc =
    match q.extract_min () with None -> acc | Some v -> drain (v :: acc)
  in
  let everything = List.sort compare (drain got) in
  let expected =
    List.sort compare
      (List.concat_map
         (fun d -> List.init per (fun i -> (((d * per) + i) * 2) + 1))
         (List.init domains Fun.id))
  in
  check (maker.name ^ " multiset conservation") true (everything = expected)

(* after a quiesced insert phase, concurrent extract-only drains must see
   per-thread non-decreasing sequences when extraction is linearizable *)
let monotone_drain (maker : Harness.Pq.maker) () =
  let n = 8_000 in
  let q = maker.make ~capacity:(2 * n) in
  let rng = Prng.create 14L in
  let inserted = Array.init n (fun _ -> Prng.int rng 1_000_000) in
  Array.iter q.insert inserted;
  let per_thread = Array.make domains [] in
  let doms =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let rec go acc =
              match q.extract_min () with
              | Some v -> go (v :: acc)
              | None -> acc
            in
            per_thread.(d) <- go [] (* reversed: newest first *)))
  in
  Harness.Watchdog.join_all ~label:"monotone_drain" doms;
  let all =
    Array.fold_left (fun acc l -> List.rev_append l acc) [] per_thread
  in
  check_int (maker.name ^ " drained everything") n (List.length all);
  check (maker.name ^ " multiset") true
    (List.sort compare all = List.sort compare (Array.to_list inserted));
  if maker.linearizable then
    Array.iteri
      (fun d l ->
        (* l is newest-first: must be non-increasing *)
        let rec nonincreasing = function
          | [] | [ _ ] -> true
          | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
        in
        check
          (Printf.sprintf "%s thread %d monotone" maker.name d)
          true (nonincreasing l))
      per_thread

(* concurrent extract_many: batches must be sorted and their union the
   full multiset (mounds only; others degrade to singletons) *)
let concurrent_extract_many () =
  List.iter
    (fun (maker : Harness.Pq.maker) ->
      let n = 20_000 in
      let q = maker.make ~capacity:(2 * n) in
      let rng = Prng.create 15L in
      let inserted = Array.init n (fun _ -> Prng.int rng 1_000_000) in
      Array.iter q.insert inserted;
      let batches = Array.make domains [] in
      let doms =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                let rec go acc =
                  match q.extract_many () with [] -> acc | b -> go (b :: acc)
                in
                batches.(d) <- go []))
      in
      Harness.Watchdog.join_all ~label:"concurrent_extract_many" doms;
      let all_batches = Array.to_list batches |> List.concat in
      List.iter
        (fun b ->
          check (maker.name ^ " batch sorted") true (b = List.sort compare b))
        all_batches;
      let union = List.concat all_batches in
      check (maker.name ^ " union complete") true
        (List.sort compare union = List.sort compare (Array.to_list inserted));
      check (maker.name ^ " empty after") true (q.extract_min () = None))
    [ Harness.Pq.On_real.mound_lf; Harness.Pq.On_real.mound_lock ]

(* insert-only contention then a full sequential validation drain *)
let parallel_insert_then_drain (maker : Harness.Pq.maker) () =
  let per = 5_000 in
  let q = maker.make ~capacity:(2 * domains * per) in
  let doms =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed:16L ~id:d in
            for _ = 1 to per do
              q.insert (Prng.int rng 1_000_000)
            done))
  in
  Harness.Watchdog.join_all ~label:"parallel_insert_then_drain" doms;
  check (maker.name ^ " invariant") true (q.check ());
  check_int (maker.name ^ " size") (domains * per) (q.size ());
  let rec drain prev count =
    match q.extract_min () with
    | None -> count
    | Some v ->
        check (maker.name ^ " global order") true (v >= prev);
        drain v (count + 1)
  in
  check_int (maker.name ^ " drains all") (domains * per) (drain min_int 0)

let mound_approx_under_concurrency () =
  let module M = Mound.Lf_int in
  let q = M.create () in
  let n = 10_000 in
  let rng = Prng.create 17L in
  let inserted = Array.init n (fun _ -> Prng.int rng 1_000_000) in
  Array.iter (M.insert q) inserted;
  let got = Array.make domains [] in
  let doms =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to n / domains / 2 do
              match M.extract_approx q with
              | Some v -> got.(d) <- v :: got.(d)
              | None -> ()
            done))
  in
  Harness.Watchdog.join_all ~label:"mound_approx_under_concurrency" doms;
  check "invariant" true (M.check q);
  let all = Array.fold_left (fun acc l -> List.rev_append l acc) [] got in
  check_int "conservation" n (List.length all + M.size q);
  (* every extracted value must be one of the inserted ones *)
  let module IS = Set.Make (Int) in
  let inserted_set = IS.of_list (Array.to_list inserted) in
  check "members only" true (List.for_all (fun v -> IS.mem v inserted_set) all)

let () =
  let per_maker mk name_suffix =
    List.map
      (fun (m : Harness.Pq.maker) ->
        Alcotest.test_case (m.name ^ name_suffix) `Quick (mk m))
      Harness.Pq.On_real.extended_set
  in
  Alcotest.run "concurrent (real domains)"
    [
      ("conservation", per_maker conservation " mixed conservation");
      ("monotone drain", per_maker monotone_drain " drain");
      ( "parallel insert",
        per_maker parallel_insert_then_drain " insert+drain" );
      ( "extensions",
        [
          Alcotest.test_case "concurrent extract_many" `Quick
            concurrent_extract_many;
          Alcotest.test_case "extract_approx members" `Quick
            mound_approx_under_concurrency;
        ] );
    ]
