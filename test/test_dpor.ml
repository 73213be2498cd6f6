(* The model-checking tier: DPOR exploration of small fixed programs
   over the concurrent structures, with vector-clock race detection and
   spin-deadlock detection (lib/check).

   Default budgets keep `dune runtest` quick; DPOR_FULL=1 removes them
   (every program must then be explored to exhaustion). Everything is
   deterministic — a reported counterexample schedule replays exactly,
   here and under `repro dpor --schedule`. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let full = Sys.getenv_opt "DPOR_FULL" <> None

module A = Sim.Runtime.Atomic
module C = Check

let budget max_schedules =
  { C.default_config with
    max_schedules = (if full then 2_000_000 else max_schedules) }

let explore ?(config = budget 50_000) prog =
  let r = C.explore ~config prog in
  Format.printf "  [dpor] %a@." C.pp_report r;
  r

(* ---------------- explorer self-tests on toy programs ---------------- *)

(* Two plain get-then-set increments: the canonical lost update. The
   race detector must flag the unordered writes before the verdict even
   gets a say. *)
let toy_lost_update () =
  let prog =
    {
      C.name = "toy-lost-update";
      prepare =
        (fun () ->
          let c = A.make 0 in
          {
            C.bodies =
              Array.make 2 (fun _ -> A.set c (A.get c + 1));
            verdict =
              (fun () ->
                if A.get c = 2 then None
                else Some (Printf.sprintf "lost update: %d" (A.get c)));
          });
    }
  in
  let r = explore prog in
  match r.C.counterexample with
  | Some { failure = C.Race race; schedule } ->
      check "write-write race" true (race.first.wrote && race.second.wrote);
      (* the counterexample replays to the same failure *)
      let replay = C.run_schedule prog schedule in
      check "replay reproduces the race" true
        (match replay.C.replay_failure with
        | Some (C.Race _) -> true
        | _ -> false)
  | _ -> Alcotest.fail "expected a write-write race counterexample"

(* The same counter with fetch_and_add: no plain writes, no races, and
   every interleaving sums correctly — exploration must come back clean
   and exhaustive. *)
let toy_atomic_counter () =
  let prog =
    {
      C.name = "toy-faa-counter";
      prepare =
        (fun () ->
          let c = A.make 0 in
          {
            C.bodies =
              Array.make 2 (fun _ ->
                  ignore (A.fetch_and_add c 1);
                  ignore (A.fetch_and_add c 1));
            verdict =
              (fun () ->
                if A.get c = 4 then None
                else Some (Printf.sprintf "bad sum: %d" (A.get c)));
          });
    }
  in
  let r = explore prog in
  check "no failure" true (r.C.counterexample = None);
  check "exhaustive" true r.C.complete;
  check "conflicting ops: several inequivalent schedules" true
    (r.C.complete_runs > 1)

(* Threads on disjoint cells commute everywhere: sleep sets must
   collapse the 6 interleavings to a single complete execution. *)
let toy_disjoint_prune () =
  let prog =
    {
      C.name = "toy-disjoint";
      prepare =
        (fun () ->
          let a = A.make 0 and b = A.make 0 in
          {
            C.bodies =
              [|
                (fun _ ->
                  A.set a 1;
                  A.set a 2);
                (fun _ ->
                  A.set b 1;
                  A.set b 2);
              |];
            verdict =
              (fun () ->
                if A.get a = 2 && A.get b = 2 then None else Some "huh");
          });
    }
  in
  let r = explore prog in
  check "no failure" true (r.C.counterexample = None);
  check "exhaustive" true r.C.complete;
  check_int "independent programs need one execution" 1 r.C.complete_runs

(* A thread spinning on a flag nobody will ever set: spin parking must
   turn the livelock into a deadlock verdict naming the spinner. *)
let toy_deadlock () =
  let prog =
    {
      C.name = "toy-deadlock";
      prepare =
        (fun () ->
          let flag = A.make 0 and other = A.make 0 in
          {
            C.bodies =
              [|
                (fun _ ->
                  while A.get flag = 0 do
                    ()
                  done);
                (fun _ -> A.set other 1);
              |];
            verdict = (fun () -> None);
          });
    }
  in
  let r = explore prog in
  match r.C.counterexample with
  | Some { failure = C.Deadlock [ 0 ]; _ } -> ()
  | Some { failure; _ } ->
      Alcotest.failf "expected deadlock of thread 0, got %a" C.pp_failure
        failure
  | None -> Alcotest.fail "expected a deadlock counterexample"

(* The TTAS spinlock protecting a plain-write critical section: the
   checker must prove it — exhaustively, with no deadlock (spin parking
   wakes the loser when the holder releases) and no race report (the
   CAS acquire orders the two critical sections; this is exactly the
   benign get-spin pattern the write-write-only default exists for). *)
let toy_spinlock () =
  let module L = Baselines.Spinlock.Make (Sim.Runtime) in
  let prog =
    {
      C.name = "toy-spinlock";
      prepare =
        (fun () ->
          let lock = L.create () in
          let c = A.make 0 in
          {
            C.bodies =
              Array.make 2 (fun _ ->
                  L.acquire lock;
                  A.set c (A.get c + 1);
                  L.release lock);
            verdict =
              (fun () ->
                if A.get c = 2 then None
                else Some (Printf.sprintf "lock failed: %d" (A.get c)));
          });
    }
  in
  let r = explore prog in
  check "no failure" true (r.C.counterexample = None);
  check "exhaustive" true r.C.complete

(* ---------------- the structure catalog ---------------- *)

(* The protocol footprint of the mound and MultiQueue programs: (schedules,
   complete runs, sleep prunes, backtrack points, steps, max trace). Each
   explores exhaustively within the quick budget, so DPOR_FULL gives the
   same tuple. A change to the mound operations that claims the same
   protocol must leave every tuple unchanged. *)
let footprint =
  [
    ("lf-mound", (8, 8, 7, 14, 488, 61));
    ("lock-mound", (32, 32, 31, 62, 1536, 48));
    ("lf-mound-many", (8, 8, 7, 14, 216, 29));
    ("lock-mound-many", (32, 32, 31, 62, 864, 31));
    ("lf-mound-batch", (2503, 2491, 1999, 4489, 291101, 125));
    ("lock-mound-batch", (453, 453, 436, 888, 38819, 89));
    ("lf-mound-batch-rt", (8, 8, 3, 10, 189, 25));
    ("lf-mound-approx", (8, 8, 7, 14, 496, 62));
    ("multiqueue", (12, 12, 7, 18, 223, 19));
    ("multiqueue-race", (16, 16, 11, 26, 387, 31));
    ("multiqueue-empty", (498, 498, 501, 998, 20748, 52));
  ]

let catalog_case name () =
  match Harness.Dpor_exp.find name with
  | None -> Alcotest.failf "unknown catalog program %s" name
  | Some prog -> (
      let r = explore ~config:(budget 200_000) prog in
      (match r.C.counterexample with
      | None -> ()
      | Some { failure; schedule } ->
          Alcotest.failf "%s: %a (schedule %s)" name C.pp_failure failure
            (Sim.Sched.Schedule.to_string schedule));
      check "explored to exhaustion" true r.C.complete;
      check "several inequivalent schedules" true (r.C.complete_runs > 1);
      match List.assoc_opt name footprint with
      | None -> ()
      | Some (schedules, complete, prunes, backtracks, steps, max_trace) ->
          List.iter
            (fun (what, expected, got) -> check_int what expected got)
            [
              ("schedules", schedules, r.C.schedules);
              ("complete runs", complete, r.C.complete_runs);
              ("sleep prunes", prunes, r.C.sleep_prunes);
              ("backtrack points", backtracks, r.C.backtracks);
              ("steps", steps, r.C.steps);
              ("max trace", max_trace, r.C.max_trace);
            ])

(* The schedule on [multiqueue-empty] that lets a lone collect miss the
   inserted key (the program's comment has the story), in decisions of
   one start plus one per shared access: the extractor takes the keys'
   queue's lock (0*6); the scanner samples, fails over and reads the
   other queue's word and top in its first pass (2*11); the inserter
   fails over into that queue (1*6); the extractor releases, then
   empties the keys' queue (0*9); the scanner reads on (2*6). The
   certificate's second pass sees the other queue's word moved, so the
   scanner retries and takes 9. A certificate that collects once, or a
   release that restores the pre-acquire word, answers [None] here,
   which no linearization explains. The explorer reports the program
   exhaustive without running this schedule, so it is pinned by hand;
   the decision count pins the access counts it was derived from. *)
let mq_lone_collect () =
  match Harness.Dpor_exp.find "multiqueue-empty" with
  | None -> Alcotest.fail "multiqueue-empty is not in the catalog"
  | Some prog ->
      let out =
        C.run_schedule prog
          (Sim.Sched.Schedule.of_string "0*6.2*11.1*6.0*9.2*6")
      in
      (match out.C.replay_failure with
      | None -> ()
      | Some f -> Alcotest.failf "lone-collect schedule: %a" C.pp_failure f);
      check_int "decisions" 41 out.C.followed

(* A schedule that runs out while the scanner holds a queue's lock (its
   sixth decision is the try-lock): past its end the replay runs the
   lowest runnable thread, which spins on that lock and never lets the
   scanner release it, and the clock watchdog, which waits for every
   runnable thread's clock, never fires. The replay must end as a wedge
   of all three threads after [max_steps] decisions past the schedule,
   with one trace event per decision at most. *)
let mq_misaligned_wedges () =
  match Harness.Dpor_exp.find "multiqueue-empty" with
  | None -> Alcotest.fail "multiqueue-empty is not in the catalog"
  | Some prog ->
      let schedule = Sim.Sched.Schedule.of_string "2*6" in
      let out = C.run_schedule prog schedule in
      check "wedged" true (out.C.wedged = [ 0; 1; 2 ]);
      check_int "decisions"
        (List.length schedule + C.default_config.max_steps)
        out.C.followed;
      check "one event per decision at most" true
        (List.length out.C.trace <= out.C.followed);
      check "no verdict on a wedge" true (out.C.replay_failure = None)

(* ---------------- seeded-mutation catches ---------------- *)

(* Shape matters: insert 1 first (it takes the root), then 2 (the root
   no longer dominates it, so it lands in a leaf). The mutant bug needs
   an element *below* the root when the root goes dirty and empty. *)
let two_extracts make =
  Harness.Dpor_exp.pq_program ~name:"two-extracts" ~make
    ~prepopulate:[ 1; 2 ] ~lin:true
    [ [ `Extract ]; [ `Extract ] ]

let mutant_caught () =
  let r = explore (two_extracts Mutant_mound.make_pq) in
  match r.C.counterexample with
  | Some { failure = C.Invariant msg; schedule } ->
      check "the lost element breaks linearizability" true
        (msg = "history not linearizable");
      (* and the schedule replays to the same verdict *)
      let replay =
        C.run_schedule (two_extracts Mutant_mound.make_pq) schedule
      in
      check "replay reproduces the violation" true
        (replay.C.replay_failure = Some (C.Invariant msg))
  | Some { failure; _ } ->
      Alcotest.failf "expected an invariant violation, got %a" C.pp_failure
        failure
  | None ->
      Alcotest.fail "mutant survived: dirty-bit mutation not caught"

(* The same program over the real lock-free mound must pass: the dirty
   check plus helping is exactly what the mutant dropped. *)
let upstream_survives () =
  let make () = Harness.Pq.On_sim.mound_lf.make ~capacity:64 in
  let r = explore ~config:(budget 200_000) (two_extracts make) in
  check "no failure" true (r.C.counterexample = None);
  check "exhaustive" true r.C.complete

(* The racy toy: two inserts via get-then-set. Race detector fires. *)
let racy_toy_caught () =
  let prog =
    Harness.Dpor_exp.pq_program ~name:"racy-toy" ~make:Racy_pq.make_racy
      ~lin:true
      [ [ `Insert 1 ]; [ `Insert 2 ] ]
  in
  let r = explore prog in
  match r.C.counterexample with
  | Some { failure = C.Race _; _ } -> ()
  | Some { failure; _ } ->
      Alcotest.failf "expected a race, got %a" C.pp_failure failure
  | None -> Alcotest.fail "racy toy survived the race detector"

(* Its CAS-loop control is clean under the identical program. *)
let cas_toy_survives () =
  let prog =
    Harness.Dpor_exp.pq_program ~name:"cas-toy" ~make:Racy_pq.make_cas
      ~lin:true
      [ [ `Insert 1; `Extract ]; [ `Insert 2 ] ]
  in
  let r = explore prog in
  check "no failure" true (r.C.counterexample = None);
  check "exhaustive" true r.C.complete

let () =
  Alcotest.run "dpor"
    [
      ( "explorer",
        [
          Alcotest.test_case "lost update caught" `Quick toy_lost_update;
          Alcotest.test_case "atomic counter proven" `Quick toy_atomic_counter;
          Alcotest.test_case "disjoint threads pruned" `Quick
            toy_disjoint_prune;
          Alcotest.test_case "spin deadlock detected" `Quick toy_deadlock;
          Alcotest.test_case "spinlock proven" `Quick toy_spinlock;
        ] );
      ( "structures",
        List.map
          (fun name -> Alcotest.test_case name `Quick (catalog_case name))
          (Harness.Dpor_exp.names ()) );
      ( "mutations",
        [
          Alcotest.test_case "mound dirty-bit mutant caught" `Quick
            mutant_caught;
          Alcotest.test_case "upstream mound survives" `Quick
            upstream_survives;
          Alcotest.test_case "racy toy caught" `Quick racy_toy_caught;
          Alcotest.test_case "cas toy survives" `Quick cas_toy_survives;
          Alcotest.test_case "multiqueue certificate: lone-collect schedule"
            `Quick mq_lone_collect;
          Alcotest.test_case "a misaligned replay ends as a wedge" `Quick
            mq_misaligned_wedges;
        ] );
    ]
