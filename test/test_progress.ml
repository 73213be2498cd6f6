(** The progress-certification tier: {!Liveness.certify} over the
    {!Harness.Progress_exp} catalog and the seeded {!Mutant_live}
    mutants.

    The smoke run uses {!Liveness.quick_config}; set [PROGRESS_FULL=1]
    to sweep {!Liveness.default_config} (every quantum, stagger and
    suspension cut) — the tier [repro progress] runs without [--quick].

    Expectations pinned here are the paper's progress claims (§III–§IV):
    the lock-free mound and the CASN primitive certify lock-free, the
    locking mound is deadlock-free but starves under a suspension
    adversary, and every reported cycle replays from its printed
    schedule. The mutants invert the claims: helping removed must yield
    a confirmed non-progress cycle, backoff removed must stay lock-free
    (backoff is contention hygiene, not progress), and the inverted
    lock order must deadlock under a fair schedule. *)

let config =
  if Sys.getenv_opt "PROGRESS_FULL" = Some "1" then Liveness.default_config
  else Liveness.quick_config

let entry name =
  match Harness.Progress_exp.find name with
  | Some e -> e.Harness.Progress_exp.program
  | None -> Alcotest.failf "no progress catalog entry %S" name

let certify p = Liveness.certify ~config p

(* ---- the clean tree ---------------------------------------------------- *)

let test_lf_mound_lock_free () =
  let r = certify (entry "lf-mound") in
  Alcotest.(check int) "inconclusive" 0 r.Liveness.inconclusive;
  Alcotest.(check bool) "lock-free" true r.Liveness.lock_free;
  Alcotest.(check bool) "deadlock-free" true r.Liveness.deadlock_free

let test_mcas_lock_free () =
  let r = certify (entry "mcas") in
  Alcotest.(check int) "inconclusive" 0 r.Liveness.inconclusive;
  Alcotest.(check bool) "lock-free" true r.Liveness.lock_free;
  Alcotest.(check bool) "deadlock-free" true r.Liveness.deadlock_free

let test_lock_mound_starves () =
  let r = certify (entry "lock-mound") in
  (* Deadlock-free under fairness, but a suspended lock holder starves
     the survivors: the lock-freedom refutation. *)
  Alcotest.(check bool) "deadlock-free" true r.Liveness.deadlock_free;
  Alcotest.(check bool) "not lock-free" false r.Liveness.lock_free;
  match r.Liveness.starvation_cycle with
  | None -> Alcotest.fail "expected a starvation cycle"
  | Some c ->
      (match c.Liveness.strategy with
      | Liveness.Suspend _ -> ()
      | s -> Alcotest.failf "starvation under %a" Liveness.pp_strategy s);
      Alcotest.(check bool) "cycle replays" true
        (Liveness.check_cycle (entry "lock-mound") c)

let test_multiqueue_failover_lock_free () =
  (* Lock-based, yet this program certifies lock-free: the threads'
     sticky draws land on distinct queues, so a suspended lock holder
     never owns a survivor's queue and the try-lock failover always
     finds an unlocked one — the progress property the relaxed
     front-end buys over a single shared lock. *)
  let r = certify (entry "multiqueue") in
  Alcotest.(check int) "inconclusive" 0 r.Liveness.inconclusive;
  Alcotest.(check bool) "lock-free" true r.Liveness.lock_free;
  Alcotest.(check bool) "deadlock-free" true r.Liveness.deadlock_free

(* ---- the mutants ------------------------------------------------------- *)

let test_no_help_mutant_cycles () =
  let r = certify Mutant_live.no_help_program in
  Alcotest.(check bool) "not lock-free" false r.Liveness.lock_free;
  let c =
    match (r.Liveness.fair_cycle, r.Liveness.starvation_cycle) with
    | Some c, _ | None, Some c -> c
    | None, None -> Alcotest.fail "expected a non-progress cycle"
  in
  Alcotest.(check bool) "replayable schedule" true
    (Liveness.check_cycle Mutant_live.no_help_program c)

let test_no_backoff_mutant_still_lock_free () =
  let r = certify Mutant_live.no_backoff_program in
  Alcotest.(check int) "inconclusive" 0 r.Liveness.inconclusive;
  Alcotest.(check bool) "lock-free" true r.Liveness.lock_free

let test_lock_inverted_mutant_deadlocks () =
  let r = certify Mutant_live.lock_inverted_program in
  Alcotest.(check bool) "not deadlock-free" false r.Liveness.deadlock_free;
  match r.Liveness.fair_cycle with
  | None -> Alcotest.fail "expected a fair deadlock cycle"
  | Some c ->
      Alcotest.(check bool) "pure spin (no writes in pump)" false
        c.Liveness.pump_writes;
      Alcotest.(check bool) "replayable schedule" true
        (Liveness.check_cycle Mutant_live.lock_inverted_program c)

(* ---- the helping lint against the mutant source ------------------------ *)

let test_lint_flags_no_help_mutant () =
  (* The mutant source is a declared dep of this test; skip silently if
     a future build layout stops copying it into the sandbox. *)
  let src = "mutant_live.ml" in
  if Sys.file_exists src then begin
    let flagged =
      Analysis.scan_file src
      |> List.filter_map (fun f ->
             if f.Analysis.rule = "static-retry" then Some f.Analysis.line
             else None)
    in
    Alcotest.(check bool) "static-retry flagged" true (flagged <> []);
    (* on [No_help.extract_min] itself: the bare retry the file header
       says the rule must flag *)
    let extract_min =
      In_channel.with_open_bin src In_channel.input_all
      |> String.split_on_char '\n'
      |> List.mapi (fun i l -> (String.trim l, i + 1))
      |> List.assoc "let rec extract_min t ="
    in
    Alcotest.(check bool) "on No_help.extract_min" true
      (List.mem extract_min flagged)
  end

let () =
  Alcotest.run "progress"
    [
      ( "clean",
        [
          Alcotest.test_case "lf-mound is lock-free" `Quick
            test_lf_mound_lock_free;
          Alcotest.test_case "mcas is lock-free" `Quick test_mcas_lock_free;
          Alcotest.test_case "lock-mound starves but does not deadlock"
            `Quick test_lock_mound_starves;
          Alcotest.test_case "multiqueue failover certifies lock-free"
            `Quick test_multiqueue_failover_lock_free;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "no-help mutant yields a replayable cycle"
            `Quick test_no_help_mutant_cycles;
          Alcotest.test_case "no-backoff mutant is still lock-free" `Quick
            test_no_backoff_mutant_still_lock_free;
          Alcotest.test_case "inverted lock order deadlocks" `Quick
            test_lock_inverted_mutant_deadlocks;
          Alcotest.test_case "lint flags the no-help mutant" `Quick
            test_lint_flags_no_help_mutant;
        ] );
    ]
