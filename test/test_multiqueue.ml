(** The relaxed MultiQueue front-end ({!Mound.Multiqueue}): sequential
    semantics, batch and admission paths, rank-relaxed linearizability
    under the simulator (the relaxation is measured, not hoped), a
    crash-point sweep showing a dead domain never wedges the surviving
    queues, and sanity checks for the {!Harness.Rank_exp} oracle.

    The crash sweep's progress claim is deliberately precise: with a
    victim dead holding one queue's try-lock, every other queue stays
    fully operational — survivor inserts rotate past the dead lock and
    survivor extracts either complete or observe their deadline. What a
    crashed holder {e does} trap is the elements inside its queue; the
    conservation oracle accounts for them explicitly. *)

let check = Alcotest.check

(* Real-runtime instantiation (sequential tests). *)
module M = Mound.Multiqueue_int

(* Simulator instantiation (crash sweep). *)
module Smq = Mound.Multiqueue.Make (Sim.Runtime) (Mound.Int_ord)

(* ---- sequential semantics --------------------------------------------- *)

let test_sequential_drain () =
  let q = M.create ~queues:4 ~domains:1 () in
  let rng = Prng.create 3L in
  let keys = Array.init 512 (fun _ -> Prng.int rng 10_000) in
  Array.iter (M.insert q) keys;
  check Alcotest.int "size counts inserts" 512 (M.size q);
  check Alcotest.bool "invariant" true (M.check q);
  (* Quiescent tops are exact, so peek over them is the true minimum. *)
  let expected_min = Array.fold_left min max_int keys in
  check
    Alcotest.(option int)
    "peek is the true min" (Some expected_min) (M.peek_min q);
  let rec drain acc =
    match M.extract_min q with
    | None -> List.rev acc
    | Some v -> drain (v :: acc)
  in
  let drained = drain [] in
  check
    Alcotest.(list int)
    "conserved"
    (List.sort compare (Array.to_list keys))
    (List.sort compare drained);
  check Alcotest.bool "empty after drain" true (M.is_empty q);
  check Alcotest.bool "invariant after drain" true (M.check q);
  check Alcotest.(option int) "empty peek" None (M.peek_min q)

let test_single_queue_is_exact () =
  (* queues:1 degenerates to one sequential mound behind a lock: the
     relaxed front-end must then be an exact priority queue. *)
  let q = M.create ~queues:1 ~domains:1 () in
  let rng = Prng.create 9L in
  let keys = List.init 256 (fun _ -> Prng.int rng 1000) in
  List.iter (M.insert q) keys;
  let rec drain acc =
    match M.extract_min q with
    | None -> List.rev acc
    | Some v -> drain (v :: acc)
  in
  let drained = drain [] in
  check Alcotest.(list int) "exact sorted drain" (List.sort compare keys)
    drained

let test_batch_and_admission () =
  let q = M.create ~queues:2 ~domains:1 () in
  M.insert_many q [ 1; 2; 3; 4; 5 ];
  check Alcotest.int "batch size" 5 (M.size q);
  let batch = M.extract_many q in
  check Alcotest.bool "extract_many returns a sorted, nonempty batch" true
    (batch <> [] && List.sort compare batch = batch);
  (match M.insert_until q ~deadline:Mound.Intf.no_deadline 7 with
  | Mound.Intf.Ok () -> ()
  | Mound.Intf.Timeout | Mound.Intf.Rejected ->
      Alcotest.fail "no-deadline insert cannot give up");
  (match M.extract_min_until q ~deadline:Mound.Intf.no_deadline with
  | Mound.Intf.Ok (Some _) -> ()
  | Mound.Intf.Ok None -> Alcotest.fail "spurious empty on a nonempty queue"
  | Mound.Intf.Timeout | Mound.Intf.Rejected ->
      Alcotest.fail "no-deadline extract cannot give up");
  (* extract_many may have drained a whole queue: restock before the
     probabilistic paths so the queue is provably nonempty *)
  M.insert q 9;
  M.insert q 11;
  (match M.extract_approx q with
  | Some _ -> ()
  | None -> Alcotest.fail "extract_approx on a nonempty queue");
  let rec drain () = match M.extract_min q with Some _ -> drain () | None -> () in
  drain ();
  (* Exact emptiness: a drained queue answers None, never a timeout. *)
  (match M.extract_min_until q ~deadline:Mound.Intf.no_deadline with
  | Mound.Intf.Ok None -> ()
  | _ -> Alcotest.fail "drained queue must report empty");
  check Alcotest.bool "ops counters exposed" true
    (let o = M.ops q in
     o.Mound.Stats.Ops.rejected >= 0)

(* Allocation on one domain: a seeded 2^12-key fill, then a drain to
   empty (the last [extract_min] runs the emptiness certificate). The
   fast path allocates nothing beyond the inner Seq mound's list cell on
   insert (3 words, plus its share of new rows) and the [Some] and [Ok]
   of the result on extract: 3.29 words per insert and 4.00 per
   [extract_min] (7.29 and 9.00 when each release allocated a [Some]
   top, [acquire] returned [Some i] and the sticky pair came back as a
   tuple). The sticky draws come from the calling domain's
   [Runtime.Real.rand_int] stream, restarted before the fill, so every
   run prints these same figures. *)
let test_allocation_budget () =
  let rng = Prng.create 7L in
  let keys = Array.init (1 lsl 12) (fun _ -> Prng.int rng 1_000_000) in
  let n = Array.length keys in
  let q = M.create ~domains:1 () in
  Runtime.Real.reseed_self 7L;
  let w0 = Gc.minor_words () in
  Array.iter (M.insert q) keys;
  let w1 = Gc.minor_words () in
  let extracted = ref 0 in
  while M.extract_min q <> None do
    incr extracted
  done;
  let w2 = Gc.minor_words () in
  let per_insert = (w1 -. w0) /. float_of_int n
  and per_extract = (w2 -. w1) /. float_of_int n in
  Printf.printf "words per op: insert %.2f, extract_min %.2f\n" per_insert
    per_extract;
  check Alcotest.int "drained every key" n !extracted;
  check Alcotest.bool "insert <= 3.3 words" true (per_insert <= 3.3);
  check Alcotest.bool "extract_min <= 4.1 words" true (per_extract <= 4.1)

(* ---- relaxed linearizability under the simulator ----------------------- *)

let mq_maker = Harness.Pq.On_sim.multiqueue ~queues:2 ~stickiness:4 ~domains:2 ()

(* Total keys alive never exceeds 6, so rank 6 is the loosest spec this
   history could need; [Lin.min_rank] reports the rank each history
   actually exhibited. *)
let test_relaxed_lin_bounded () =
  for i = 1 to 40 do
    let seed = Int64.of_int (400 + (31 * i)) in
    Sim.Sched.seed_ambient 5L;
    let q = mq_maker.Harness.Pq.make ~capacity:64 in
    List.iter q.Harness.Pq.insert [ 2; 5; 8 ];
    let scripts =
      [ [ `Insert 1; `Extract; `Extract ]; [ `Insert 3; `Extract ] ]
    in
    let recorded =
      List.map (fun s -> Harness.Lin.recorder ~now:Sim.Sched.events q s) scripts
    in
    let bodies =
      Array.of_list (List.map (fun (b, _) _tid -> b ()) recorded)
    in
    ignore (Sim.Sched.run ~seed bodies);
    let events = List.concat_map (fun (_, c) -> c ()) recorded in
    match Harness.Lin.min_rank ~init:[ 2; 5; 8 ] events with
    | Some k ->
        check Alcotest.bool "rank within the total-key bound" true (k <= 6)
    | None -> Alcotest.fail "history not relaxed-linearizable at any rank"
  done

(* The spec's teeth, pinned on a rigid (non-overlapping) history where
   the Wing-Gong reordering freedom cannot explain the skip away: an
   extraction returning the second-smallest key while the smallest is
   definitely present is exactly rank 2 — rejected by the exact spec,
   admitted at rank 2, and [min_rank] reports the 2. Emptiness is never
   relaxed: an [Ext None] with the model nonempty stays a violation at
   every rank, as does a lost element. *)
let test_relaxed_spec_teeth () =
  let ev inv resp op = { Harness.Lin.inv; resp; op } in
  let skip =
    [
      ev 0 1 (Harness.Lin.Ins 1);
      ev 2 3 (Harness.Lin.Ins 2);
      ev 4 5 (Harness.Lin.Ext (Some 2));
      ev 6 7 (Harness.Lin.Ext (Some 1));
    ]
  in
  check Alcotest.bool "exact spec rejects the skip" false
    (Harness.Lin.check skip);
  check Alcotest.bool "rank-2 spec admits the skip" true
    (Harness.Lin.check ~rank:2 skip);
  check Alcotest.(option int) "min_rank records the exhibited 2" (Some 2)
    (Harness.Lin.min_rank skip);
  let spurious_empty =
    [ ev 0 1 (Harness.Lin.Ins 1); ev 2 3 (Harness.Lin.Ext None) ]
  in
  check Alcotest.(option int) "emptiness never relaxed" None
    (Harness.Lin.min_rank spurious_empty);
  let lost =
    [ ev 0 1 (Harness.Lin.Ins 1); ev 2 3 (Harness.Lin.Ext (Some 9)) ]
  in
  check Alcotest.(option int) "invented element never excused" None
    (Harness.Lin.min_rank lost)

(* The structure genuinely relaxes: a single-threaded drain over spread
   queues with stickiness 1 re-samples the two-choice pair every call,
   and some call returns a key larger than a later one — an inversion no
   exact queue produces. Conservation still holds exactly. *)
let test_relaxation_exhibited () =
  let inverted = ref false in
  for seed = 1 to 8 do
    let q =
      M.create ~queues:4 ~stickiness:1 ~domains:2
        ~seed:(Int64.of_int seed) ()
    in
    let rng = Prng.create (Int64.of_int (100 + seed)) in
    let keys = List.init 64 (fun _ -> Prng.int rng 100_000) in
    List.iter (M.insert q) keys;
    let rec drain acc =
      match M.extract_min q with
      | None -> List.rev acc
      | Some v -> drain (v :: acc)
    in
    let drained = drain [] in
    check Alcotest.(list int) "drain conserves" (List.sort compare keys)
      (List.sort compare drained);
    if drained <> List.sort compare drained then inverted := true
  done;
  check Alcotest.bool "some drain is out of order" true !inverted

(* A single-threaded sim history must be exactly linearizable: with no
   concurrency the two-choice extract still returns some queue's true
   minimum, and the checker's rank-1 spec must accept the interleaving
   where each queue's min was the global min at its linearization. *)
let test_relaxed_lin_rank1_sequential () =
  Sim.Sched.seed_ambient 5L;
  let q =
    (Harness.Pq.On_sim.multiqueue ~queues:1 ~domains:1 ()).Harness.Pq.make
      ~capacity:64
  in
  List.iter q.Harness.Pq.insert [ 4; 6 ];
  let recorded =
    Harness.Lin.recorder ~now:Sim.Sched.events q
      [ `Insert 5; `Extract; `Extract; `Extract ]
  in
  let bodies = [| (fun _tid -> (fst recorded) ()) |] in
  ignore (Sim.Sched.run ~seed:1L bodies);
  let events = (snd recorded) () in
  check Alcotest.(option int) "exact at rank 1" (Some 1)
    (Harness.Lin.min_rank ~init:[ 4; 6 ] events)

(* ---- crash-point sweep: a dead domain never wedges the others ---------- *)

let nsurv = 3
let survivor_pairs = 4
let huge = 1_000_000
let prepop = List.init 8 (fun i -> 10 + (i * 7))

(* One simulated run: the victim (tid 0) inserts huge keys and can be
   crashed at any of its shared accesses — including inside a critical
   section, dying with a queue lock held; three survivors run
   insert/extract pairs over small keys. [budget = 0] means no deadline
   (the crash-free calibration run). Returns the scheduler verdict plus
   everything the conservation oracle needs. *)
let crash_run ~crash ~watchdog ~budget ~seed =
  Sim.Sched.seed_ambient 11L;
  let q = Smq.create ~queues:4 ~stickiness:4 ~domains:4 () in
  List.iter (Smq.insert q) prepop;
  let victim_done = ref 0 in
  let extracted = Array.make nsurv [] in
  let timeouts = Array.make nsurv 0 in
  let pairs_done = Array.make nsurv 0 in
  let inserted = Array.make nsurv [] in
  let survivor i =
    for k = 0 to survivor_pairs - 1 do
      let key = 100 + (i * 20) + k in
      Smq.insert q key;
      inserted.(i) <- key :: inserted.(i);
      let deadline =
        if budget = 0 then Mound.Intf.no_deadline
        else Sim.Runtime.monotonic_ns () + budget
      in
      (match Smq.extract_min_until q ~deadline with
      | Mound.Intf.Ok (Some v) -> extracted.(i) <- v :: extracted.(i)
      | Mound.Intf.Ok None ->
          (* [None] needs the emptiness certificate: every queue free
             and empty at one instant. Each survivor extracts only after
             its own insert, so the structure never holds fewer than the
             pre-populated keys, and an empty answer here is a bug. *)
          Alcotest.fail "spurious empty under crash"
      | Mound.Intf.Timeout -> timeouts.(i) <- timeouts.(i) + 1
      | Mound.Intf.Rejected -> Alcotest.fail "deadline extract cannot be rejected");
      pairs_done.(i) <- pairs_done.(i) + 1
    done
  in
  let bodies =
    Array.of_list
      ((fun _tid ->
         for k = 0 to 2 do
           Smq.insert q (huge + k);
           incr victim_done
         done)
      :: List.init nsurv (fun i _tid -> survivor i))
  in
  let crashes = if crash = 0 then [] else [ (0, crash) ] in
  let r = Sim.Sched.run ~seed ?watchdog ~crashes bodies in
  (r, q, victim_done, extracted, timeouts, pairs_done, inserted)

let test_crash_sweep_never_wedges () =
  (* Crash-free calibration: measures the victim's access range (the
     crash coordinate space), the virtual-time span (scales the
     watchdog and the per-op deadline budget), and checks that with no
     faults nothing times out. *)
  let r0, q0, _, _, timeouts0, pairs0, _ =
    crash_run ~crash:0 ~watchdog:None ~budget:0 ~seed:42L
  in
  check Alcotest.(list int) "calibration: no wedges" [] r0.Sim.Sched.wedged;
  check Alcotest.int "calibration: no timeouts" 0
    (Array.fold_left ( + ) 0 timeouts0);
  Array.iter
    (fun p -> check Alcotest.int "calibration: all pairs" survivor_pairs p)
    pairs0;
  check Alcotest.bool "calibration: quiescent invariant" true (Smq.check q0);
  let victim_accesses = r0.Sim.Sched.accesses.(0) in
  check Alcotest.bool "victim has a crash coordinate space" true
    (victim_accesses > 0);
  let budget = 8 * r0.Sim.Sched.span in
  let watchdog = Some (64 * r0.Sim.Sched.span) in
  let stride = if Sys.getenv_opt "MULTIQUEUE_FULL" = Some "1" then 1 else 3 in
  let crash = ref 1 in
  while !crash <= victim_accesses do
    let r, q, victim_done, extracted, _timeouts, pairs_done, inserted =
      crash_run ~crash:!crash ~watchdog ~budget ~seed:42L
    in
    (* The claim: no survivor is ever stopped by the watchdog — every
       operation completes or bounds itself by its deadline, because
       inserts rotate past the dead holder's queue and the emptiness
       scan consults the deadline. *)
    check Alcotest.(list int)
      (Printf.sprintf "crash@%d: no survivor wedged" !crash)
      [] r.Sim.Sched.wedged;
    Array.iter
      (fun p ->
        check Alcotest.int
          (Printf.sprintf "crash@%d: survivor finished" !crash)
          survivor_pairs p)
      pairs_done;
    (* Conservation, trapped elements included: everything the survivors
       extracted plus everything still inside the queues (read directly
       off the node lists, dead lock or not) must equal the
       pre-population plus the survivors' inserts on the small side, and
       the victim's completed inserts — plus at most one in-flight
       insert that may or may not have landed — on the huge side. *)
    let remaining = Smq.fold_nodes q (fun acc _ l -> l @ acc) [] in
    let all_extracted = Array.to_list extracted |> List.concat in
    let smalls l = List.filter (fun v -> v < huge) l in
    let all_inserted = Array.to_list inserted |> List.concat in
    check Alcotest.(list int)
      (Printf.sprintf "crash@%d: small keys conserved" !crash)
      (List.sort compare (prepop @ all_inserted))
      (List.sort compare (smalls remaining @ smalls all_extracted));
    let huges_seen =
      List.length remaining + List.length all_extracted
      - List.length (smalls remaining)
      - List.length (smalls all_extracted)
    in
    check Alcotest.bool
      (Printf.sprintf "crash@%d: huge keys are the victim's completed \
                       inserts (+ at most one in flight)" !crash)
      true
      (huges_seen = !victim_done || huges_seen = !victim_done + 1);
    crash := !crash + stride
  done

(* ---- rank-error oracle sanity ------------------------------------------ *)

let test_rank_oracle_exact_structure () =
  (* An exact structure drained by one domain replays with zero rank
     error, nothing unmatched and nothing spuriously empty: the oracle
     itself adds no noise without concurrency. *)
  let trial, stats =
    Harness.Rank_exp.run_rank_trial ~seed:3L ~threads:1 ~ops_per_thread:2048
      Harness.Pq.On_real.mound_lf
  in
  check Alcotest.int "all extractions replayed" 2048
    stats.Harness.Rank_exp.extractions;
  check Alcotest.int "nothing unmatched" 0 stats.Harness.Rank_exp.unmatched;
  check Alcotest.int "nothing spuriously empty" 0
    stats.Harness.Rank_exp.empty_returns;
  check (Alcotest.float 1e-9) "zero mean rank error" 0.
    stats.Harness.Rank_exp.mean_error;
  check Alcotest.int "zero max rank error" 0
    stats.Harness.Rank_exp.max_error;
  check Alcotest.int "trial ops match" 2048 trial.Harness.Real_exp.ops

let test_rank_oracle_multiqueue_bounded () =
  (* The relaxed front-end still conserves elements: every extraction
     matches the oracle multiset (no inventions, no duplicates), and a
     single-domain drain empties the queue completely. *)
  let _, stats =
    Harness.Rank_exp.run_rank_trial ~seed:3L ~threads:1 ~ops_per_thread:2048
      (Harness.Pq.On_real.multiqueue ~domains:2 ())
  in
  check Alcotest.int "all extractions replayed" 2048
    stats.Harness.Rank_exp.extractions;
  check Alcotest.int "nothing unmatched" 0 stats.Harness.Rank_exp.unmatched;
  check Alcotest.int "nothing spuriously empty" 0
    stats.Harness.Rank_exp.empty_returns

let () =
  Alcotest.run "multiqueue"
    [
      ( "sequential",
        [
          Alcotest.test_case "insert/drain conserves and empties" `Quick
            test_sequential_drain;
          Alcotest.test_case "queues:1 degenerates to an exact queue" `Quick
            test_single_queue_is_exact;
          Alcotest.test_case "batch, admission and deadline paths" `Quick
            test_batch_and_admission;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
        ] );
      ( "relaxed-lin",
        [
          Alcotest.test_case "histories rank-bounded under the simulator"
            `Quick test_relaxed_lin_bounded;
          Alcotest.test_case "spec teeth: rank 2 pinned, emptiness exact"
            `Quick test_relaxed_spec_teeth;
          Alcotest.test_case "two-choice drain exhibits inversions" `Quick
            test_relaxation_exhibited;
          Alcotest.test_case "sequential history exact at rank 1" `Quick
            test_relaxed_lin_rank1_sequential;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash sweep: dead domain never wedges others"
            `Quick test_crash_sweep_never_wedges;
        ] );
      ( "rank-oracle",
        [
          Alcotest.test_case "exact structure replays with zero error" `Quick
            test_rank_oracle_exact_structure;
          Alcotest.test_case "relaxed structure conserves under the oracle"
            `Quick test_rank_oracle_multiqueue_bounded;
        ] );
    ]
