(* Overload resilience tier: bounded admission (reject / shed / block),
   deadline-aware operations, and wedge recovery when a lock holder is
   killed or stalled on real domains.

   The sim-backed tests are deterministic in their seeds; the real-domain
   tests are smoke tests with generous wall-clock bounds. The crash /
   stall sweeps run a strided subset of fault points by default so
   `dune runtest` stays quick; set OVERLOAD_FULL=1 to cover every point. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let full = Sys.getenv_opt "OVERLOAD_FULL" <> None

(* Wall-clock slack for real-domain deadline assertions: scheduling can
   overshoot a deadline by preemption granularity, never by seconds. *)
let grain_ns = 200_000_000

let ms n = n * 1_000_000

(* ---------------- bounded admission (deterministic) ---------------- *)

module B = Mound.Bounded.Make (Runtime.Real)

let lf_ops : (Mound.Lf_int.t, int) B.ops =
  {
    insert_until = (fun q ~deadline v -> Mound.Lf_int.insert_until q ~deadline v);
    extract_min = Mound.Lf_int.extract_min;
    extract_min_until =
      (fun q ~deadline -> Mound.Lf_int.extract_min_until q ~deadline);
    extract_approx =
      (fun ~max_level q -> Mound.Lf_int.extract_approx ~max_level q);
  }

(* 2x over-capacity arrivals under Reject: the watermark holds exactly,
   the overflow is refused and counted, and what survives is what came
   before the watermark was reached. *)
let bounded_reject () =
  let q = Mound.Lf_int.create () in
  let b = B.make ~ops:lf_ops ~capacity:64 ~policy:B.Reject q in
  let admitted = ref 0 and rejected = ref 0 in
  for v = 0 to 127 do
    match B.insert b v with
    | Mound.Intf.Ok () -> incr admitted
    | Mound.Intf.Rejected -> incr rejected
    | Mound.Intf.Timeout -> Alcotest.fail "no deadline was set"
  done;
  check_int "admitted to the watermark" 64 !admitted;
  check_int "overflow rejected" 64 !rejected;
  check_int "rejections counted" 64 (B.counters b).rejected;
  check_int "occupancy at the watermark" 64 (B.size b);
  let rec drain i =
    match B.extract_min b with
    | Some v ->
        check_int "survivors are the pre-watermark arrivals" i v;
        drain (i + 1)
    | None -> i
  in
  check_int "exactly the watermark drains back out" 64 (drain 0);
  check_int "occupancy returns to zero" 0 (B.size b)

(* Same overflow under Shed: every over-capacity arrival evicts a
   probably-low-priority victim instead of being refused, so late
   high-priority arrivals displace early low-priority ones. *)
let bounded_shed () =
  let q = Mound.Lf_int.create () in
  let b = B.make ~ops:lf_ops ~capacity:64 ~policy:B.Shed q in
  (* descending arrivals: every late key outranks everything resident *)
  for i = 0 to 127 do
    match B.insert b (127 - i) with
    | Mound.Intf.Ok () -> ()
    | _ -> Alcotest.fail "shed admits every arrival"
  done;
  check_int "one eviction per over-capacity arrival" 64 (B.counters b).shed;
  check_int "occupancy held at the watermark" 64 (B.size b);
  check_int "structure holds exactly the watermark" 64 (Mound.Lf_int.size q);
  (match B.extract_min b with
  | Some v -> check_int "the hottest arrival survived shedding" 0 v
  | None -> Alcotest.fail "queue empty after shedding");
  check "mound invariant intact after shedding" true (Mound.Lf_int.check q)

(* Block policy on a full queue: the insert parks, honours its deadline,
   and admits promptly once an extraction drains below the watermark. *)
let bounded_block_deadline () =
  let q = Mound.Lf_int.create () in
  let b = B.make ~ops:lf_ops ~capacity:8 ~policy:B.Block q in
  for v = 0 to 7 do
    match B.insert b v with
    | Mound.Intf.Ok () -> ()
    | _ -> Alcotest.fail "below the watermark nothing blocks"
  done;
  let budget = ms 20 in
  let t0 = Runtime.Real.monotonic_ns () in
  (match B.insert_until b ~deadline:(t0 + budget) 99 with
  | Mound.Intf.Timeout -> ()
  | _ -> Alcotest.fail "a full Block queue must time out");
  let elapsed = Runtime.Real.monotonic_ns () - t0 in
  check "blocked through the deadline" true (elapsed >= budget);
  check "gave up within scheduling granularity" true
    (elapsed < budget + grain_ns);
  check_int "timeout counted" 1 (B.counters b).deadline_timeouts;
  ignore (B.extract_min b);
  match B.insert_until b ~deadline:(Runtime.Real.monotonic_ns () + ms 1000) 42 with
  | Mound.Intf.Ok () -> ()
  | _ -> Alcotest.fail "draining below the watermark must unblock"

(* Two domains push 2x capacity of traffic through a Shed front-end:
   the watermark holds (up to the documented force-reserve slack) and
   the books balance at quiescence. *)
let bounded_concurrent_smoke () =
  let q = Mound.Lf_int.create () in
  let capacity = 128 in
  let b = B.make ~ops:lf_ops ~capacity ~policy:B.Shed q in
  let per_thread = if full then 8192 else 2048 in
  let doms =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to per_thread do
              match B.insert b ((tid * per_thread) + i) with
              | Mound.Intf.Ok () -> ()
              | _ -> Alcotest.fail "shed admits every arrival"
            done))
  in
  Array.iter Domain.join doms;
  check "shedding fired under sustained overload" true ((B.counters b).shed > 0);
  (* force-reserve can exceed the watermark only while a racing probe
     sees an emptier structure than the admission counter does *)
  check "occupancy within watermark slack" true (B.size b <= capacity + 8);
  check_int "admission counter agrees with the structure" (B.size b)
    (Mound.Lf_int.size q);
  check "mound invariant intact" true (Mound.Lf_int.check q)

(* ---------------- deadline semantics (deterministic) ---------------- *)

(* The first attempt of a [_until] variant always runs: a generous (or
   even already-expired) deadline on an uncontended queue never produces
   a spurious Timeout, and results equal the plain operations'. *)
let deadline_first_attempt () =
  let q = Mound.Lf_int.create () in
  let past = Runtime.Real.monotonic_ns () - 1 in
  (match Mound.Lf_int.insert_until q ~deadline:past 7 with
  | Mound.Intf.Ok () -> ()
  | _ -> Alcotest.fail "uncontended insert completes its first attempt");
  (match Mound.Lf_int.extract_min_until q ~deadline:past with
  | Mound.Intf.Ok (Some v) -> check_int "value round-trips" 7 v
  | _ -> Alcotest.fail "uncontended extract completes its first attempt");
  (match Mound.Lf_int.extract_min_until q ~deadline:past with
  | Mound.Intf.Ok None -> ()
  | _ -> Alcotest.fail "empty is an answer, not a timeout");
  check_int "no spurious timeouts" 0 (Mound.Lf_int.ops q).deadline_timeouts;
  let lq = Mound.Lock_int.create () in
  (match Mound.Lock_int.insert_until lq ~deadline:past 7 with
  | Mound.Intf.Ok () -> ()
  | _ -> Alcotest.fail "uncontended lock insert completes");
  match Mound.Lock_int.extract_min_until lq ~deadline:past with
  | Mound.Intf.Ok (Some 7) -> ()
  | _ -> Alcotest.fail "uncontended lock extract completes"

(* Two domains hammer the LF mound through tiny-deadline variants: no
   call may overrun its deadline by more than scheduling granularity,
   whether it completes or times out. Lock-freedom makes Timeout rare
   here; the property under test is the latency bound, not the verdict. *)
let lf_deadline_bound_under_contention () =
  let q = Mound.Lf_int.create () in
  for i = 0 to 255 do
    Mound.Lf_int.insert q i
  done;
  let per_thread = if full then 4096 else 1024 in
  let worst = Atomic.make 0 in
  let bump_worst d =
    let rec go () =
      let w = Atomic.get worst in
      if d > w && not (Atomic.compare_and_set worst w d) then go ()
    in
    go ()
  in
  let doms =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to per_thread do
              let budget = ms 1 in
              let t0 = Runtime.Real.monotonic_ns () in
              let deadline = t0 + budget in
              (if (i + tid) land 1 = 0 then
                 ignore (Mound.Lf_int.insert_until q ~deadline i)
               else ignore (Mound.Lf_int.extract_min_until q ~deadline));
              let over = Runtime.Real.monotonic_ns () - t0 - budget in
              if over > 0 then bump_worst over
            done))
  in
  Array.iter Domain.join doms;
  check "no call overran its deadline beyond granularity" true
    (Atomic.get worst < grain_ns);
  check "mound invariant intact" true (Mound.Lf_int.check q)

(* ---------------- wedge recovery, simulated (deterministic) -------- *)

module SL = Mound.Lock.Make (Sim.Runtime) (Mound.Int_ord)

let sim_prepop = 16

(* One simulated run: thread 0 extracts once and is crashed at its
   [crash]-th shared access; thread 1 then performs 8 extractions. *)
let sim_run ~lease ~crash ~watchdog =
  Sim.Sched.seed_ambient 11L;
  let q = SL.create ~lease () in
  for i = 0 to sim_prepop - 1 do
    SL.insert q (i * 37 mod 97)
  done;
  let survivor_got = ref 0 in
  let bodies =
    [|
      (fun _ -> ignore (SL.extract_min q));
      (fun _ ->
        for _ = 1 to 8 do
          match SL.extract_min q with
          | Some _ -> incr survivor_got
          | None -> ()
        done);
    |]
  in
  let crashes = if crash = 0 then [] else [ (0, crash) ] in
  let r = Sim.Sched.run ~seed:11L ~crashes ~watchdog bodies in
  (r, !survivor_got, SL.ops q, SL.check q)

let sim_crash_points () =
  (* a fault-free run fixes the victim's crash coordinate space *)
  let r0, _, _, _ = sim_run ~lease:0 ~crash:0 ~watchdog:2_000_000 in
  let max_k = r0.accesses.(0) in
  let stride = if full then 1 else 3 in
  let rec pts k acc = if k > max_k then List.rev acc else pts (k + stride) (k :: acc) in
  pts 1 []

(* With a lease, a crashed lock holder is always recovered from: the
   survivor never wedges, completes all its extractions, and at least
   one crash point requires an actual revocation. Deterministic: the
   whole sweep replays byte-for-byte. *)
let sim_lease_recovery () =
  let recoveries = ref 0 in
  List.iter
    (fun k ->
      let r, got, ops, ok = sim_run ~lease:400 ~crash:k ~watchdog:2_000_000 in
      check "victim crashed as planned" true (r.killed = [ 0 ]);
      check "survivor never wedges under a lease" true (r.wedged = []);
      check_int "survivor completed all extractions" 8 got;
      check "mound invariant intact after recovery" true ok;
      recoveries := !recoveries + ops.lock_recoveries)
    (sim_crash_points ());
  check "some crash point required a revocation" true (!recoveries >= 1);
  (* determinism: replaying the sweep reproduces the recovery count *)
  let again = ref 0 in
  List.iter
    (fun k ->
      let _, _, ops, _ = sim_run ~lease:400 ~crash:k ~watchdog:2_000_000 in
      again := !again + ops.lock_recoveries)
    (sim_crash_points ());
  check_int "sweep is deterministic" !recoveries !again

(* Without a lease the survivor cannot revoke — but a deadline lets it
   give up during the acquisition phase instead of wedging. The deadline
   cannot interrupt the committed phase (after the behead, moundify must
   run to completion, and a dead child lock inside it still wedges —
   that is exactly the gap the lease closes, proven above), so the
   assertion here is: at least one crash point forces a Timeout, and
   every non-wedged run ends in Ok or Timeout. *)
let sim_deadline_instead_of_wedge () =
  let run ~crash =
    Sim.Sched.seed_ambient 13L;
    let q = SL.create () in
    (* lease = 0: revocation off *)
    for i = 0 to sim_prepop - 1 do
      SL.insert q (i * 37 mod 97)
    done;
    let outcome = ref None in
    let bodies =
      [|
        (fun _ -> ignore (SL.extract_min q));
        (fun _ ->
          let deadline = Sim.Runtime.monotonic_ns () + 5_000 in
          outcome := Some (SL.extract_min_until q ~deadline));
      |]
    in
    let r =
      Sim.Sched.run ~seed:13L ~crashes:[ (0, crash) ] ~watchdog:2_000_000
        bodies
    in
    (r, !outcome, SL.ops q)
  in
  let timeouts = ref 0 in
  List.iter
    (fun k ->
      let r, outcome, ops = run ~crash:k in
      match outcome with
      | Some Mound.Intf.Timeout ->
          incr timeouts;
          check "a timed-out survivor never wedges" true (r.wedged = []);
          check "timeout counted" true (ops.deadline_timeouts >= 1)
      | Some (Mound.Intf.Ok _) -> ()
      | Some Mound.Intf.Rejected -> Alcotest.fail "no admission control here"
      | None ->
          (* committed-phase wedge: only the watchdog stopped the
             survivor, which is the lease's job to prevent, not the
             deadline's *)
          check "only a wedge leaves no outcome" true (r.wedged <> []))
    (sim_crash_points ());
  check "some crash point forced a deadline timeout" true (!timeouts >= 1)

(* The non-blocking insert: at a deadline that has already passed,
   [insert_until] still makes its one attempt, but it never waits out a
   lock. An extractor crashes at each of its shared accesses; while it
   dies holding the root — the insertion point of key 5 in the one-level
   mound, its insertion point's parent in the two-level one — the
   insert must time out unpublished, counted, before the watchdog
   fires. *)
let sim_passed_deadline_insert () =
  let fresh prepop =
    Sim.Sched.seed_ambient 17L;
    let q = SL.create () in
    List.iter (SL.insert q) prepop;
    q
  in
  let victim q = [| (fun _ -> ignore (SL.extract_min q)) |] in
  let holds_root q =
    SL.is_locked (Sim.Runtime.Atomic.get (SL.T.get q.SL.tree 1))
  in
  let published q =
    SL.fold_nodes q (fun acc _ l -> acc || List.mem 5 l) false
  in
  List.iter
    (fun (shape, prepop) ->
      let max_k =
        (Sim.Sched.run ~seed:17L (victim (fresh prepop))).accesses.(0)
      in
      let held = ref 0 in
      for k = 1 to max_k do
        let q = fresh prepop in
        ignore (Sim.Sched.run ~seed:17L ~crashes:[ (0, k) ] (victim q));
        let root_held = holds_root q in
        if root_held then incr held;
        let outcome = ref None in
        let r =
          Sim.Sched.run ~seed:17L ~watchdog:2_000_000
            [|
              (fun _ ->
                let past = Sim.Runtime.monotonic_ns () - 1 in
                outcome := Some (SL.insert_until q ~deadline:past 5));
            |]
        in
        let at = Printf.sprintf "%s, crash@%d" shape k in
        check (at ^ ": returns before the watchdog") true (r.wedged = []);
        match !outcome with
        | Some Mound.Intf.Timeout ->
            check_int (at ^ ": timeout counted") 1 (SL.ops q).deadline_timeouts;
            check (at ^ ": key unpublished") false (published q)
        | Some (Mound.Intf.Ok ()) ->
            check (at ^ ": a held root forces a timeout") false root_held;
            check (at ^ ": key published") true (published q)
        | Some Mound.Intf.Rejected | None ->
            Alcotest.failf "%s: no admission control, no wedge" at
      done;
      check (shape ^ ": some crash point holds the root") true (!held > 0))
    [ ("one level", [ 20; 10 ]); ("two levels", [ 1; 10; 20 ]) ]

(* ---------------- wedge recovery, real domains (smoke) ------------- *)

let wait_until ?(timeout_s = 5.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

module CR = Chaos.Real (Runtime.Real)
module LM = Mound.Lock.Make (CR) (Mound.Int_ord)

let real_prepop = 32

(* Sweep fault points [ks]; at each, a victim domain arms a fault on its
   own k-th shared access and runs one extraction. [victim] returns the
   victim's extraction count; [after] checks each round. Returns total
   revocations observed. *)
let real_sweep ~ks ~lease ~kill () =
  let recoveries = ref 0 in
  List.iter
    (fun k ->
      CR.reset ();
      let q = LM.create ~lease () in
      for i = 0 to real_prepop - 1 do
        LM.insert q (i * 17 mod 97)
      done;
      let victim_done = Atomic.make false in
      let victim_got = Atomic.make 0 in
      let d =
        Domain.spawn (fun () ->
            (if kill then CR.arm_kill else CR.arm_stall)
              ~victim:(CR.self ()) ~after:k;
            (try
               match LM.extract_min q with
               | Some _ -> Atomic.set victim_got 1
               | None -> ()
             with Chaos.Killed -> ());
            Atomic.set victim_done true)
      in
      let reached =
        wait_until (fun () -> CR.fired () || Atomic.get victim_done)
      in
      check "victim neither hung nor vanished" true reached;
      let faulted = CR.fired () && not (Atomic.get victim_done) in
      let survivor_got = ref 0 in
      if faulted then begin
        (* the holder is dead or parked: the survivor must still make
           progress, revoking the lease if the lock is held *)
        (match LM.extract_min q with
        | Some _ -> survivor_got := 1
        | None -> Alcotest.fail "survivor found a populated mound empty");
        if not kill then CR.release ()
      end;
      Domain.join d;
      CR.reset ();
      (* availability: a full drain terminates, revoking on the way any
         dead-held lock it meets (off-path recoveries land here) *)
      let rec drain acc =
        match LM.extract_min q with None -> acc | Some _ -> drain (acc + 1)
      in
      let drained = drain 0 in
      let round_recoveries = (LM.ops q).lock_recoveries in
      recoveries := !recoveries + round_recoveries;
      (* per-node sortedness survives any fault point; the stronger
         guarantees below need to know whether a critical section was
         actually interrupted *)
      check "per-node lists stay sorted" true
        (LM.fold_nodes q
           (fun ok _ l ->
             ok
             &&
             let rec sorted = function
               | [] | [ _ ] -> true
               | a :: (b :: _ as r) -> a <= b && sorted r
             in
             sorted l)
           true);
      if round_recoveries = 0 then
        (* no revocation was needed, so no fault landed inside a
           critical section: nothing lost, nothing duplicated. (When a
           holder IS revoked mid-protocol, recovery promises
           availability and heap repair, not conservation — a holder
           parked mid-swap has the only reference to a detached list;
           see DESIGN.md on the overload model.) *)
        check_int "element books balance" real_prepop
          (drained + Atomic.get victim_got + !survivor_got))
    ks;
  !recoveries

let real_stall_recovery () =
  let ks = if full then List.init 16 (fun i -> i + 1) else [ 2; 3; 4; 6; 9 ] in
  let recoveries = real_sweep ~ks ~lease:(ms 3) ~kill:false () in
  check "a parked holder was revoked at least once" true (recoveries >= 1)

let real_kill_recovery () =
  let ks = if full then List.init 16 (fun i -> i + 1) else [ 3; 4; 6; 9; 12 ] in
  let recoveries = real_sweep ~ks ~lease:(ms 3) ~kill:true () in
  check "a dead holder was revoked at least once" true (recoveries >= 1)

(* A killed holder without a lease wedges the lock mound for good — the
   deadline variant is then the only way out, and it must return within
   its budget plus granularity. Which access index the victim holds the
   root lock at depends on the tree layout, so sweep a few kill points
   and require that at least one leaves a wedge the deadline escapes. *)
let real_kill_deadline_escape () =
  let budget = ms 20 in
  let escaped = ref 0 in
  List.iter
    (fun k ->
      CR.reset ();
      let q = LM.create () in
      (* lease = 0: revocation off, a dead holder wedges its node *)
      for i = 0 to 15 do
        LM.insert q i
      done;
      let d =
        Domain.spawn (fun () ->
            CR.arm_kill ~victim:(CR.self ()) ~after:k;
            try ignore (LM.extract_min q) with Chaos.Killed -> ())
      in
      Domain.join d;
      if CR.fired () then begin
        let t0 = Runtime.Real.monotonic_ns () in
        match LM.extract_min_until q ~deadline:(t0 + budget) with
        | Mound.Intf.Timeout ->
            let elapsed = Runtime.Real.monotonic_ns () - t0 in
            check "waited out the full budget" true (elapsed >= budget);
            check "escaped within scheduling granularity" true
              (elapsed < budget + grain_ns);
            check "timeout counted" true ((LM.ops q).deadline_timeouts >= 1);
            incr escaped
        | Mound.Intf.Ok _ -> () (* died outside any critical section *)
        | Mound.Intf.Rejected -> Alcotest.fail "no admission control here"
      end;
      CR.reset ())
    [ 1; 2; 3; 4; 5; 6; 8; 10 ];
  check "some kill wedged the root; the deadline escaped it" true
    (!escaped >= 1)

(* Shed evicts through [extract_approx ~max_level:6]; the harness handle
   must forward the depth it is asked for. At depth 0 the probe can only
   land on the root, so every call returns the exact minimum — the
   default depth 2 would probe seven nodes of this increasing-key mound. *)
let pq_ops_forward_probe_depth () =
  let q = Harness.Pq.On_real.mound_lf.make ~capacity:1024 in
  List.iter q.insert (List.init 1024 Fun.id);
  for want = 0 to 31 do
    Alcotest.(check (option int))
      "depth-0 probe is the minimum" (Some want)
      (Harness.Real_exp.pq_ops.extract_approx ~max_level:0 q)
  done

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "overload"
    [
      ( "bounded",
        [
          Alcotest.test_case "reject holds the watermark" `Quick bounded_reject;
          Alcotest.test_case "shed displaces low priority" `Quick bounded_shed;
          Alcotest.test_case "block honours its deadline" `Quick
            bounded_block_deadline;
          Alcotest.test_case "2 domains, watermark holds" `Quick
            bounded_concurrent_smoke;
          Alcotest.test_case "harness handle keeps the shed depth" `Quick
            pq_ops_forward_probe_depth;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "first attempt always runs" `Quick
            deadline_first_attempt;
          Alcotest.test_case "latency bound under contention" `Quick
            lf_deadline_bound_under_contention;
          Alcotest.test_case "passed deadline under a dead holder" `Quick
            sim_passed_deadline_insert;
        ] );
      ( "sim-recovery",
        [
          Alcotest.test_case "lease revocation, crash sweep" `Quick
            sim_lease_recovery;
          Alcotest.test_case "deadline instead of wedge" `Quick
            sim_deadline_instead_of_wedge;
        ] );
      ( "real-recovery",
        [
          Alcotest.test_case "stalled holder revoked" `Quick
            real_stall_recovery;
          Alcotest.test_case "killed holder revoked" `Quick real_kill_recovery;
          Alcotest.test_case "deadline escapes a wedge" `Quick
            real_kill_deadline_escape;
        ] );
    ]
