(* The chaos tier: crash-stop scheduling, fault injection, and the
   progress-guarantee sweeps.

   The sweeps run a fast crash-point subset by default so `dune runtest`
   stays quick; set CHAOS_FULL=1 to crash the victim at every one of its
   shared accesses. Everything here is deterministic in its seeds — a
   failure replays exactly. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stride = match Sys.getenv_opt "CHAOS_FULL" with Some _ -> 1 | None -> 7

module SR = Sim.Runtime

(* ---------------- scheduler crash-stop primitives ---------------- *)

(* A declarative crash plan kills the thread at exactly its k-th shared
   access: the access is charged but not performed, and the thread makes
   no further progress. *)
let crash_plan () =
  let a = SR.Atomic.make 0 in
  let done_count = ref 0 in
  let bodies =
    [|
      (fun _ ->
        for i = 1 to 10 do
          SR.Atomic.set a i;
          incr done_count
        done);
      (fun _ -> for _ = 1 to 10 do ignore (SR.Atomic.get a) done);
    |]
  in
  let r = Sim.Sched.run ~seed:3L ~crashes:[ (0, 4) ] bodies in
  check "killed" true (r.killed = [ 0 ]);
  check "no wedge" true (r.wedged = []);
  check_int "victim stopped at its 4th access" 4 r.accesses.(0);
  check_int "survivor unaffected" 10 r.accesses.(1);
  (* the 4th set was charged but not performed: the last landed value is
     the 3rd, and the post-access increment never ran *)
  check_int "fatal access not performed" 3 (SR.Atomic.get a);
  check_int "iterations completed before death" 3 !done_count

(* Remote kill stops a runaway peer; the run terminates. *)
let remote_kill () =
  let a = SR.Atomic.make 0 in
  let bodies =
    [|
      (fun _ ->
        while true do
          ignore (SR.Atomic.fetch_and_add a 1)
        done);
      (fun _ ->
        for _ = 1 to 20 do
          ignore (SR.Atomic.get a)
        done;
        Sim.Sched.kill 0);
    |]
  in
  let r = Sim.Sched.run ~seed:4L bodies in
  check "runaway thread killed" true (r.killed = [ 0 ])

(* Self-kill raises through the fiber: code after it never runs. *)
let self_kill () =
  let after = ref false in
  let a = SR.Atomic.make 0 in
  let bodies =
    [|
      (fun _ ->
        ignore (SR.Atomic.get a);
        Sim.Sched.kill 0;
        after := true);
      (fun _ -> ignore (SR.Atomic.get a));
    |]
  in
  let r = Sim.Sched.run ~seed:5L bodies in
  check "self-killed" true (r.killed = [ 0 ]);
  check "continuation not resumed" false !after

(* The virtual-time watchdog converts an endless spin into a reported
   wedge instead of a hang. *)
let watchdog_wedge () =
  let flag = SR.Atomic.make false in
  let bodies =
    [|
      (fun _ ->
        while not (SR.Atomic.get flag) do
          SR.cpu_relax ()
        done);
      (fun _ -> for _ = 1 to 5 do ignore (SR.Atomic.get flag) done);
    |]
  in
  let r = Sim.Sched.run ~seed:6L ~watchdog:5_000 bodies in
  check "spinner wedged" true (r.wedged = [ 0 ]);
  check "finisher not wedged" true (not (List.mem 1 r.wedged));
  check "wedged is not killed" true (r.killed = [])

(* An exception escaping one body aborts the run, unwinds every other
   fiber, and leaves the scheduler reusable. *)
let exception_cleanup () =
  let a = SR.Atomic.make 0 in
  let bodies =
    [|
      (fun _ ->
        ignore (SR.Atomic.get a);
        failwith "boom");
      (fun _ ->
        while true do
          ignore (SR.Atomic.fetch_and_add a 1)
        done);
    |]
  in
  (match Sim.Sched.run ~seed:7L bodies with
  | _ -> Alcotest.fail "expected the body's exception to propagate"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* no Concurrent_simulation, no leaked fibers: a fresh run works *)
  let r = Sim.Sched.run ~seed:7L [| (fun _ -> ignore (SR.Atomic.get a)) |] in
  check_int "scheduler reusable after abort" 1 r.yields

(* ---------------- fault injection ---------------- *)

module C = Chaos.Make (Sim.Runtime)

let chaos_quiet_counts () =
  C.configure Chaos.quiet;
  let a = C.Atomic.make 0 in
  for _ = 1 to 10 do
    ignore (C.Atomic.get a)
  done;
  check "quiet CAS succeeds" true (C.Atomic.compare_and_set a 0 1);
  check_int "gets counted" 10 C.counters.gets;
  check_int "cas counted" 1 C.counters.cas;
  check_int "quiet injects nothing" 0
    (C.counters.spurious_failures + C.counters.delays)

let chaos_spurious_failures () =
  C.configure
    { (Chaos.default ~seed:5L) with cas_fail_permil = 500; delay_permil = 0 };
  let a = C.Atomic.make 0 in
  (* an identity CAS can only fail by injection; drive until one does *)
  let tries = ref 0 in
  while C.counters.spurious_failures = 0 && !tries < 1_000 do
    incr tries;
    ignore (C.Atomic.compare_and_set a 0 0)
  done;
  check "a spurious failure was injected" true
    (C.counters.spurious_failures > 0);
  (* memory untouched by failed injections; a retried CAS still lands *)
  let rec settle n =
    if C.Atomic.compare_and_set a 0 1 then n else settle (n + 1)
  in
  let retries = settle 0 in
  check_int "value landed despite injection" 1 (C.Atomic.get a);
  check "weak-CAS semantics: failures are spurious, not lost updates" true
    (retries >= 0)

let chaos_stream_deterministic () =
  let record () =
    C.configure { (Chaos.default ~seed:9L) with cas_fail_permil = 300 };
    let a = C.Atomic.make 0 in
    List.init 40 (fun _ -> C.Atomic.compare_and_set a 0 0)
  in
  check "same plan, same fault stream" true (record () = record ())

(* ---------------- tree expansion under injected faults ---------------- *)

module CT = Mound.Tree.Make (C)

(* The replacement row is allocated once, before the publish loop: a
   spurious weak-CAS failure retries the publish with the same row, so a
   single-threaded expansion allocates exactly one row per level even
   when injection fails a large fraction of its CAS attempts. *)
let chaos_expand_single_allocation () =
  C.configure
    { (Chaos.default ~seed:21L) with cas_fail_permil = 400; delay_permil = 0 };
  let t = CT.create (fun () -> ref 0) in
  let target = 12 in
  for d = 1 to target - 1 do
    (* the depth CAS is weak — a failed advance is legal; re-drive *)
    while CT.depth t < d + 1 do
      CT.expand t d
    done
  done;
  check_int "depth reached" target (CT.depth t);
  (* levels 0..2 are pre-published by [create]; 3..target-1 by expand *)
  check_int "one allocation per level despite injected failures"
    (target - 3) (CT.row_allocations t);
  for i = 1 to (1 lsl target) - 1 do
    ignore (CT.get t i)
  done

(* Racing expanders: losers may each allocate a row they fail to
   publish, but at most one allocation wins per level — the depth is
   exact, every published row is usable, and the total allocation count
   is bounded by racers x levels rather than retries x levels. *)
let chaos_expand_racing_allocations () =
  C.configure
    { (Chaos.default ~seed:22L) with cas_fail_permil = 200; delay_permil = 0 };
  let t = CT.create (fun () -> ref 0) in
  let threads = 4 and target = 10 in
  let bodies =
    Array.init threads (fun _ _ ->
        for d = 1 to target - 1 do
          while CT.depth t < d + 1 do
            CT.expand t d
          done
        done)
  in
  ignore (Sim.Sched.run ~seed:13L bodies);
  check_int "depth exact after race" target (CT.depth t);
  let expanded = target - 3 in
  check "every expanded level allocated at least once" true
    (CT.row_allocations t >= expanded);
  check "allocations bounded by racers, not by retries" true
    (CT.row_allocations t <= threads * expanded);
  for i = 1 to (1 lsl target) - 1 do
    ignore (CT.get t i)
  done

(* ---------------- mcas helping under crash-stop stalls ---------------- *)

module M = Mcas.Make (Harness.Chaos_exp.CR.Atomic)

(* The swept cells hold integers, each [Val] a block of its own. *)
type _ M.state += Val of int

(* Crash a victim thread inside one multi-word operation at every one of
   its shared accesses in turn, while survivor threads keep reading and
   identity-rewriting the same cells: lock-freedom says they complete by
   helping the dead thread's descriptor, and the operation stays
   all-or-nothing. Every operation names its cells in allocation order.
   [setup ()] builds fresh cells and returns the victim's operation, one
   identity rewrite per survivor (each reads fresh states, then rewrites
   them to themselves), and a post-run reader of the cells: [`New] if
   every one holds the victim's new state, [`Old] if every one holds its
   old state, [`Torn] otherwise.
   The victim changes the values at most once, so with helping each
   survivor sees at most one of its eight rewrites fail; a survivor that
   gave up on a descriptor instead of helping it fails more. *)
let helping_sweep setup =
  Harness.Chaos_exp.CR.configure Chaos.quiet;
  let run crash watchdog =
    let victim, rewrites, outcome = setup () in
    let failed = ref 0 in
    let survivor rewrite _ =
      for _ = 1 to 8 do
        if not (rewrite ()) then incr failed
      done
    in
    let bodies =
      Array.of_list
        ((fun _ -> ignore (victim ())) :: List.map survivor rewrites)
    in
    let crashes = if crash = 0 then [] else [ (0, crash) ] in
    let r = Sim.Sched.run ~seed:21L ~crashes ~watchdog bodies in
    check
      (Printf.sprintf "crash@%d: survivors complete via helping" crash)
      true (r.wedged = []);
    check
      (Printf.sprintf "crash@%d: rewrites fail only on the victim's write"
         crash)
      true
      (!failed <= List.length rewrites);
    (r, outcome)
  in
  (* the crash-free run is bounded too, so a livelock fails, not hangs *)
  let baseline, _ = run 0 20_000 in
  let watchdog = (4 * baseline.span) + 20_000 in
  let applied = ref 0 and untouched = ref 0 in
  for k = 1 to baseline.accesses.(0) do
    let r, outcome = run k watchdog in
    check (Printf.sprintf "crash@%d: victim dead" k) true (r.killed = [ 0 ]);
    (* ambient reads help any still-pending descriptor to a decision *)
    match outcome () with
    | `New -> incr applied
    | `Old -> incr untouched
    | `Torn -> Alcotest.failf "crash@%d: operation is not all-or-nothing" k
  done;
  (* the sweep must witness both resolutions: early crashes leave the
     operation unstarted, late ones leave survivors to finish it *)
  check "some crash points leave the operation unapplied" true
    (!untouched > 0);
  check "some crash points see helpers complete it" true (!applied > 0)

(* The victim runs a 3-word [casn]; survivors identity-rewrite the
   overlapping pairs (a, b) and (b, c). *)
let mcas_helping_under_stalls () =
  let x0 = Val 0 and x1 = Val 1 and y0 = Val 10 and y1 = Val 11 in
  let z0 = Val 20 and z1 = Val 21 in
  helping_sweep (fun () ->
      let a = M.Cell.make x0 and b = M.Cell.make y0 and c = M.Cell.make z0 in
      let victim () =
        M.Cell.casn [| (a, x0, x1); (b, y0, y1); (c, z0, z1) |]
      in
      let rewrites =
        [
          (fun () ->
            let va = M.Cell.get a and vb = M.Cell.get b in
            M.Cell.casn [| (a, va, va); (b, vb, vb) |]);
          (fun () ->
            let vb = M.Cell.get b and vc = M.Cell.get c in
            M.Cell.casn [| (b, vb, vb); (c, vc, vc) |]);
        ]
      in
      let outcome () =
        let va = M.Cell.get a and vb = M.Cell.get b and vc = M.Cell.get c in
        if va == x1 && vb == y1 && vc == z1 then `New
        else if va == x0 && vb == y0 && vc == z0 then `Old
        else `Torn
      in
      (victim, rewrites, outcome))

(* The two-leg path the lock-free mound runs: the victim's [dcas] names
   [a] first; survivors identity-rewrite both cells with a
   moundify-shaped [dcas] and an insert-shaped [dcss]. *)
let dcas_helping_under_stalls () =
  let x0 = Val 0 and x1 = Val 1 and y0 = Val 10 and y1 = Val 11 in
  helping_sweep (fun () ->
      let a = M.Cell.make x0 and b = M.Cell.make y0 in
      let victim () = M.Cell.dcas a x0 x1 b y0 y1 in
      let rewrites =
        [
          (fun () ->
            let va = M.Cell.get a and vb = M.Cell.get b in
            M.Cell.dcas a va va b vb vb);
          (fun () ->
            let va = M.Cell.get a and vb = M.Cell.get b in
            M.Cell.dcss a va b vb vb);
        ]
      in
      let outcome () =
        let va = M.Cell.get a and vb = M.Cell.get b in
        if va == x1 && vb == y1 then `New
        else if va == x0 && vb == y0 then `Old
        else `Torn
      in
      (victim, rewrites, outcome))

(* ---------------- the progress-guarantee sweeps ---------------- *)

(* Lock-free mound: no crash point may cost the survivors progress,
   linearizability, or elements. Run twice: the sweep itself must be
   deterministic in (plan, seed). *)
let lf_sweep () =
  let s = Harness.Chaos_exp.sweep_lf ~stride ~seed:11L () in
  let open Harness.Chaos_exp in
  check_int "every crash point completed" (List.length s.runs) (completed s);
  check_int "no wedges" 0 (wedged s);
  check "every surviving history linearizable" true (all_linearizable s);
  check "every drain balanced" true (all_conserved s);
  check "crash space covered" true (s.victim_accesses > 0);
  check "helping observed across the sweep" true (s.ops.helps > 0);
  check "faults injected across the sweep" true
    (s.faults.spurious_failures > 0);
  let s' = Harness.Chaos_exp.sweep_lf ~stride ~seed:11L () in
  Alcotest.(check string)
    "sweep deterministic in (plan, seed)" (fingerprint s) (fingerprint s')

(* Locking mound: some crash point must wedge the survivors, the
   watchdog must report it (this test terminating is itself the no-hang
   assertion), and the runs that do complete must still be correct. *)
let lock_sweep () =
  let s =
    Harness.Chaos_exp.sweep_lock ~stride:(max 1 (stride / 2)) ~seed:11L ()
  in
  let open Harness.Chaos_exp in
  check "a crashed lock holder wedges survivors" true (wedged s >= 1);
  check "wedges are reported, not hidden" true
    (List.exists
       (fun r -> match r.outcome with Wedged (_ :: _) -> true | _ -> false)
       s.runs);
  check "completed runs stay linearizable" true (all_linearizable s);
  check "completed runs conserve elements" true (all_conserved s);
  check "lock spinning observed" true (s.ops.lock_spins > 0);
  let s' =
    Harness.Chaos_exp.sweep_lock ~stride:(max 1 (stride / 2)) ~seed:11L ()
  in
  Alcotest.(check string)
    "sweep deterministic in (plan, seed)" (fingerprint s) (fingerprint s')

let () =
  Alcotest.run "chaos"
    [
      ( "sched-crash",
        [
          Alcotest.test_case "declarative crash plan" `Quick crash_plan;
          Alcotest.test_case "remote kill" `Quick remote_kill;
          Alcotest.test_case "self kill" `Quick self_kill;
          Alcotest.test_case "watchdog wedge" `Quick watchdog_wedge;
          Alcotest.test_case "exception cleanup" `Quick exception_cleanup;
        ] );
      ( "injection",
        [
          Alcotest.test_case "quiet plan only counts" `Quick
            chaos_quiet_counts;
          Alcotest.test_case "spurious CAS failures" `Quick
            chaos_spurious_failures;
          Alcotest.test_case "fault stream deterministic" `Quick
            chaos_stream_deterministic;
          Alcotest.test_case "expand: one row allocation per level" `Quick
            chaos_expand_single_allocation;
          Alcotest.test_case "expand: racing allocations bounded" `Quick
            chaos_expand_racing_allocations;
        ] );
      ( "mcas-stall",
        [
          Alcotest.test_case "helping under crash-stop stalls" `Quick
            mcas_helping_under_stalls;
          Alcotest.test_case "dcas: helping under crash-stop stalls" `Quick
            dcas_helping_under_stalls;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "lf: progress + linearizable + conserved"
            `Quick lf_sweep;
          Alcotest.test_case "lock: wedge detected, never hangs" `Quick
            lock_sweep;
        ] );
    ]
