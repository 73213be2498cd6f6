(* Deterministic schedule exploration in the simulator: every structure
   is run under many seeded interleavings with invariant and conservation
   checks after each. This is the closest thing to a model checker in the
   suite — failures replay exactly from their seed. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seeds = List.init 12 (fun i -> Int64.of_int (1000 + (7 * i)))

let threads = 6
let per = 120

(* mixed insert/extract under many schedules *)
let mixed_schedules (maker : Harness.Pq.maker) () =
  List.iter
    (fun seed ->
      let q = maker.make ~capacity:(threads * per * 2) in
      let extracted = Array.make threads [] in
      let body tid =
        for i = 0 to per - 1 do
          q.insert ((((tid * per) + i) * 2) + 1);
          if Sim.Sched.rand_int 3 > 0 then
            match q.extract_min () with
            | Some v -> extracted.(tid) <- v :: extracted.(tid)
            | None -> ()
        done
      in
      ignore (Sim.Sched.run ~seed (Array.make threads body));
      check
        (Printf.sprintf "%s invariant (seed %Ld)" maker.name seed)
        true (q.check ());
      let got =
        Array.fold_left (fun a l -> List.rev_append l a) [] extracted
      in
      check_int
        (Printf.sprintf "%s conservation (seed %Ld)" maker.name seed)
        (threads * per)
        (List.length got + q.size ()))
    seeds

(* drain-only phase: per-thread monotone sequences for the linearizable
   structures, under every seed *)
let drain_schedules (maker : Harness.Pq.maker) () =
  List.iter
    (fun seed ->
      let n = 600 in
      let q = maker.make ~capacity:(2 * n) in
      Sim.Sched.seed_ambient seed;
      let rng = Prng.create seed in
      let inserted = Array.init n (fun _ -> Prng.int rng 10_000) in
      Array.iter q.insert inserted;
      let got = Array.make threads [] in
      let body tid =
        let rec go () =
          match q.extract_min () with
          | Some v ->
              got.(tid) <- v :: got.(tid);
              go ()
          | None -> ()
        in
        go ()
      in
      ignore (Sim.Sched.run ~seed (Array.make threads body));
      let all = Array.fold_left (fun a l -> List.rev_append l a) [] got in
      check
        (Printf.sprintf "%s multiset (seed %Ld)" maker.name seed)
        true
        (List.sort compare all = List.sort compare (Array.to_list inserted));
      if maker.linearizable then
        Array.iter
          (fun l ->
            let rec noninc = function
              | [] | [ _ ] -> true
              | a :: (b :: _ as r) -> a >= b && noninc r
            in
            check
              (Printf.sprintf "%s monotone (seed %Ld)" maker.name seed)
              true (noninc l))
          got)
    seeds

(* heavier adversarial run for the two mound variants on the preemptive
   (oversubscribed) niagara2 profile: 32 threads on 8 cores with stalls *)
let oversubscribed_mounds () =
  List.iter
    (fun (maker : Harness.Pq.maker) ->
      let q = maker.make ~capacity:100_000 in
      let t = 32 and ops = 40 in
      let extracted = Atomic.make 0 in
      let body tid =
        for i = 0 to ops - 1 do
          q.insert ((tid * 1000) + i);
          if i land 1 = 0 then
            match q.extract_min () with
            | Some _ -> Atomic.incr extracted
            | None -> ()
        done
      in
      let profile = { Sim.Profile.niagara2 with hw_threads = 16 } in
      ignore (Sim.Sched.run ~profile ~seed:321L (Array.make t body));
      check (maker.name ^ " invariant oversubscribed") true (q.check ());
      check_int
        (maker.name ^ " conservation oversubscribed")
        (t * ops)
        (Atomic.get extracted + q.size ()))
    Harness.Pq.On_sim.[ mound_lf; mound_lock ]

(* Regression: the lock-based skiplist once livelocked under this exact
   deterministic schedule (constant-pause try-lock retries re-aligning
   forever); randomized backoff must keep it terminating. *)
let skiplist_lock_livelock_regression () =
  let module SL = Baselines.Skiplist_lock_pq.Make (Sim.Runtime) (Mound.Int_ord) in
  Sim.Sched.seed_ambient 7L;
  let q = SL.create () in
  let rng = Prng.create 24L in
  for _ = 1 to 1024 do
    SL.insert q (Prng.int rng (1 lsl 30))
  done;
  let body _tid =
    for _ = 1 to 384 do
      if Sim.Sched.rand_int 2 = 0 then
        SL.insert q (Sim.Sched.rand_int (1 lsl 30))
      else ignore (SL.extract_min q)
    done
  in
  let r = Sim.Sched.run ~profile:Sim.Profile.x86 ~seed:7L (Array.make 4 body) in
  check "terminates" true (r.span > 0);
  check "still sorted" true (SL.check q)

(* Regression: extract_min could claim a node as soon as its level-0 link
   was visible and unlink it top-down before the inserter had linked its
   upper levels. The late upper link left a removed node in the list, a
   predecessor every later validation rejects, so the next insert or
   unlink through it retried forever (the real-domain wedge of
   test_concurrent's skiplist_lock case). A sticky policy — keep the
   running thread 9 times in 10 — parks inserters mid-link often enough
   to hit it within a few seeds; the watchdog turns a wedge into a
   result. *)
let skiplist_lock_link_before_unlink () =
  let module SL = Baselines.Skiplist_lock_pq.Make (Sim.Runtime) (Mound.Int_ord) in
  let module A = Sim.Runtime.Atomic in
  let removed_still_linked (q : SL.t) =
    let n = ref 0 in
    for lvl = 0 to SL.max_height - 1 do
      let rec walk (nd : SL.node) =
        match nd.c with
        | SL.Tail -> ()
        | _ ->
            if A.get nd.removed then incr n;
            walk (A.get nd.next.(lvl))
      in
      walk (A.get q.head.next.(lvl))
    done;
    !n
  in
  for s = 1 to 40 do
    let seed = Int64.of_int s in
    Sim.Sched.seed_ambient seed;
    let q = SL.create () in
    for i = 1 to 4 do
      SL.insert q (i * 1000)
    done;
    let rng = Prng.create seed in
    let cur = ref 0 in
    let policy runnable =
      if Array.exists (fun (t, _) -> t = !cur) runnable && Prng.int rng 10 < 9
      then !cur
      else begin
        cur := fst runnable.(Prng.int rng (Array.length runnable));
        !cur
      end
    in
    let body tid =
      for i = 1 to 20 do
        SL.insert q ((tid * 100_000) + i);
        ignore (SL.extract_min q)
      done
    in
    let r = Sim.Sched.run ~seed ~policy ~watchdog:2_000_000 [| body; body |] in
    check_int (Printf.sprintf "no thread wedged (seed %d)" s) 0
      (List.length r.wedged);
    check_int
      (Printf.sprintf "no removed node left linked (seed %d)" s)
      0 (removed_still_linked q);
    check (Printf.sprintf "still sorted (seed %d)" s) true (SL.check q)
  done

(* extract_many and extract_approx on the LF mound across schedules *)
let lf_extensions_schedules () =
  let module M = Mound.Lf.Make (Sim.Runtime) (Mound.Int_ord) in
  List.iter
    (fun seed ->
      let q = M.create () in
      Sim.Sched.seed_ambient seed;
      let rng = Prng.create seed in
      let n = 400 in
      let inserted = Array.init n (fun _ -> Prng.int rng 10_000) in
      Array.iter (M.insert q) inserted;
      let got = Array.make threads [] in
      let body tid =
        let rec go () =
          match M.extract_many q with
          | [] -> (
              match M.extract_approx q with
              | Some v ->
                  got.(tid) <- [ v ] :: got.(tid);
                  go ()
              | None -> ())
          | b ->
              got.(tid) <- b :: got.(tid);
              go ()
        in
        go ()
      in
      ignore (Sim.Sched.run ~seed (Array.make threads body));
      let batches = Array.to_list got |> List.concat in
      List.iter
        (fun b -> check "batch sorted" true (b = List.sort compare b))
        batches;
      check "union complete" true
        (List.sort compare (List.concat batches)
        = List.sort compare (Array.to_list inserted));
      check "invariant" true (M.check q))
    seeds

let () =
  let per_maker mk suffix =
    List.map
      (fun (m : Harness.Pq.maker) ->
        Alcotest.test_case (m.name ^ suffix) `Quick (mk m))
      Harness.Pq.On_sim.extended_set
  in
  Alcotest.run "sim schedules"
    [
      ("mixed", per_maker mixed_schedules " mixed x12 seeds");
      ("drain", per_maker drain_schedules " drain x12 seeds");
      ( "adversarial",
        [
          Alcotest.test_case "oversubscribed mounds" `Quick
            oversubscribed_mounds;
          Alcotest.test_case "lf extensions across schedules" `Quick
            lf_extensions_schedules;
          Alcotest.test_case "skiplist_lock livelock regression" `Quick
            skiplist_lock_livelock_regression;
          Alcotest.test_case "skiplist_lock links before unlink" `Quick
            skiplist_lock_link_before_unlink;
        ] );
    ]
