(** Command-line runner that regenerates the paper's evaluation.

    {v
    repro table1|table2|table3|table4      # sequential structure tables
    repro fig2 [--panel P] [--machine M] [--quick] [--extended]
    repro overload [--quick] [--out DIR]   # BENCH_overload_*.json artifacts
    repro rank [--quick] [--out DIR]       # BENCH_rankerror.json (relaxed PQs)
    repro ablation WHICH [--quick]         # threshold, kcss, approx, costs
    repro lin [--histories N]              # linearizability checks
    repro chaos [--seed S] [--full]        # crash-stop + fault-injection sweep
    repro dpor [PROGRAM] [--schedule S]    # DPOR model checking / replay
    repro progress [PROGRAM] [--quick]     # liveness certification / replay
    repro shape [-n N] [--order O]         # mound level occupancy
    repro lint [--rule R] [--json] [DIR..] # Parsetree lint (--list-rules)
    repro mutate [--op OP] [-o PATH]       # mutant x rule kill matrix
    repro all [--quick]                    # everything, in paper order
    v} *)

open Cmdliner

let ppf = Format.std_formatter

(* ---------- tables ---------- *)

let run_table which quick =
  let n = if quick then 1 lsl 16 else 1 lsl 20 in
  (match which with
  | 1 -> Harness.Tables.(print_table1 ppf (table1 ~n ()))
  | 2 -> Harness.Tables.(print_table2 ppf (table2 ~n ()))
  | 3 -> Harness.Tables.(print_table3 ppf (table3 ~ops:n ()))
  | 4 -> Harness.Tables.(print_table4 ppf (table4 ~n ()))
  | _ -> invalid_arg "table");
  Format.pp_print_flush ppf ()

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced problem sizes.")

let table_cmd n =
  let doc = Printf.sprintf "Reproduce the paper's Table %d." n in
  Cmd.v
    (Cmd.info (Printf.sprintf "table%d" n) ~doc)
    Term.(const (run_table n) $ quick_flag)

(* ---------- fig2 (simulator) ---------- *)

let panel_conv =
  let parse s =
    match Harness.Workload.panel_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown panel %S" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Harness.Workload.panel_name p))

let panel_arg =
  Arg.(
    value
    & opt (some panel_conv) None
    & info [ "panel" ] ~docv:"PANEL"
        ~doc:"Panel: insert, extractmin, mixed or extractmany (default: all).")

let machine_conv =
  let parse s =
    match Sim.Profile.by_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown machine %S (niagara2, x86 or uniform)" s))
  in
  Arg.conv (parse, fun ppf (p : Sim.Profile.t) -> Format.pp_print_string ppf p.name)

let machine_arg =
  Arg.(
    value
    & opt (some machine_conv) None
    & info [ "machine" ] ~docv:"MACHINE"
        ~doc:"Simulator profile: niagara2, x86 or uniform (default: both testbeds).")

let extended_flag =
  Arg.(
    value & flag
    & info [ "extended" ]
        ~doc:"Also run the coarse-lock heap ablation series.")

let run_fig2 panel machine quick extended =
  let scale =
    if quick then Harness.Fig2.quick_scale else Harness.Fig2.paper_scale
  in
  let makers =
    if extended then Harness.Pq.On_sim.extended_set
    else Harness.Pq.On_sim.paper_set
  in
  let profiles =
    match machine with
    | None -> [ Sim.Profile.niagara2; Sim.Profile.x86 ]
    | Some p -> [ p ]
  in
  let panels =
    match panel with
    | Some p -> [ p ]
    | None ->
        Harness.Workload.[ Insert; Extract; Mixed; Extract_many ]
  in
  List.iter
    (fun profile ->
      List.iter
        (fun panel ->
          let series = Harness.Fig2.run ~scale ~makers ~profile ~panel () in
          Harness.Fig2.print_panel ppf ~profile ~panel series)
        panels)
    profiles;
  Format.pp_print_flush ppf ()

let fig2_cmd =
  let doc =
    "Reproduce Fig. 2 (throughput vs threads) on the machine simulator."
  in
  Cmd.v (Cmd.info "fig2" ~doc)
    Term.(const run_fig2 $ panel_arg $ machine_arg $ quick_flag $ extended_flag)

(* ---------- wall-clock artifacts on real domains ---------- *)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let threads_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "threads" ] ~docv:"N"
        ~doc:"Max domains (default: recommended domain count).")

(* Thread sweep for the overload/rank pipelines: powers of two up to
   the domain budget, plus the budget itself when it is not a power of
   two — 1,2,4,…,max_t. On a wide machine that makes the 1→2-thread
   collapse curve visible at 4/8 threads; on a narrow one ([max_t] from
   [Domain.recommended_domain_count ()], floored at 2) it degrades to
   the old 1,2. [--quick] keeps the 1,2 pair: the sweep's cost is per
   thread count, and quick mode feeds the in-test regression guard,
   which keys on matching thread counts only. *)
let sweep_thread_counts ~quick ~max_t =
  if quick || max_t <= 2 then [ 1; min 2 max_t ] |> List.sort_uniq compare
  else
    let rec pows t acc =
      if t >= max_t then List.rev (max_t :: acc) else pows (2 * t) (t :: acc)
    in
    pows 1 []

let trials_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "trials" ] ~docv:"N"
        ~doc:"Measured trials per cell (default: 3 with --quick, else 5).")

let warmup_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "warmup" ] ~docv:"N"
        ~doc:"Discarded warmup trials per cell (default: 1).")

let out_arg =
  Arg.(
    value & opt dir "."
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Directory receiving the BENCH_*.json artifacts.")

(* ---------- overload / degradation artifacts ---------- *)

let run_overload scenario threads trials warmup quick out =
  let seed = 7L in
  let ops = if quick then 1 lsl 12 else 1 lsl 15 in
  let trials =
    match trials with Some n -> n | None -> if quick then 3 else 5
  in
  let warmup = Option.value warmup ~default:1 in
  let max_t =
    match threads with
    | Some n -> n
    | None -> max 2 (Domain.recommended_domain_count ())
  in
  let thread_counts = sweep_thread_counts ~quick ~max_t in
  (* Watermark well below the per-thread budget, so every scenario
     actually saturates admission rather than fitting inside capacity. *)
  let capacity = max 64 (ops / 16) in
  let scenarios =
    match scenario with
    | Some s -> [ s ]
    | None -> Harness.Real_exp.[ Bursty; Overcap; Zipf_mix ]
  in
  List.iter
    (fun scenario ->
      let run maker =
        Harness.Real_exp.run_overload_series ~seed ~warmup ~trials ~scenario
          ~thread_counts ~ops_per_thread:ops ~capacity maker
      in
      let series =
        List.map run
          [
            Harness.Pq.On_real.mound_lf;
            Harness.Pq.On_real.mound_lock;
            Harness.Pq.On_real.multiqueue ~domains:max_t ();
          ]
      in
      let tag = "overload_" ^ Harness.Real_exp.scenario_name scenario in
      let doc =
        Harness.Bench_json.(panel_codec.enc (of_panel ~panel:tag ~seed ~warmup
          ~measured_trials:trials ~ops_per_thread:ops ~init_size:capacity
          series))
      in
      (match Harness.Bench_json.validate doc with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "BENCH_%s.json invalid: %s" tag e));
      let path = Filename.concat out (Printf.sprintf "BENCH_%s.json" tag) in
      Harness.Bench_json.write_file path (Harness.Bench_json.to_string doc);
      Format.fprintf ppf "@.[overload] %s (capacity %d) -> %s@." tag capacity
        path;
      Format.fprintf ppf "%-18s %7s %14s %10s %10s %10s@." "structure"
        "threads" "median ktps" "rejected" "shed" "timeouts";
      List.iter
        (fun (s : Harness.Real_exp.series) ->
          List.iter
            (fun (c : Harness.Real_exp.cell) ->
              let rej, shed, tmo =
                match c.counters with
                | Some o ->
                    Mound.Stats.Ops.(o.rejected, o.shed, o.deadline_timeouts)
                | None -> (0, 0, 0)
              in
              Format.fprintf ppf "%-18s %7d %14.1f %10d %10d %10d@."
                s.structure c.threads
                (c.summary.median /. 1000.)
                rej shed tmo)
            s.cells)
        series)
    scenarios;
  Format.pp_print_flush ppf ()

let scenario_arg =
  let parse s =
    match Harness.Real_exp.scenario_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown scenario %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf (Harness.Real_exp.scenario_name s)
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "scenario" ] ~docv:"SCENARIO"
        ~doc:"Overload scenario: bursty, overcap or zipf (default: all).")

let overload_cmd =
  let doc =
    "Record overload/degradation artifacts (BENCH_overload_<scenario>.json): \
     the LF and lock mounds and the relaxed MultiQueue behind the bounded \
     admission front-end under bursty, sustained over-capacity and Zipfian \
     traffic."
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      const run_overload $ scenario_arg $ threads_arg $ trials_arg
      $ warmup_arg $ quick_flag $ out_arg)

(* ---------- rank error: the price of relaxation ---------- *)

let run_rank threads trials warmup quick out =
  let seed = 7L in
  (* Each trial drains threads * ops elements and replays the merged log
     through the Fenwick oracle, so the budget is a notch below the
     timing panels'. *)
  let ops = if quick then 1 lsl 12 else 1 lsl 14 in
  let trials =
    match trials with Some n -> n | None -> if quick then 3 else 5
  in
  let warmup = Option.value warmup ~default:1 in
  let max_t =
    match threads with
    | Some n -> n
    | None -> max 2 (Domain.recommended_domain_count ())
  in
  let thread_counts = sweep_thread_counts ~quick ~max_t in
  (* The exact LF mound doubles as calibration: its measured mean rank
     error bounds the noise added by the timestamp approximation. *)
  let series, rows =
    List.split
      (List.map
         (fun maker ->
           Harness.Rank_exp.run_rank_series ~seed ~warmup ~trials
             ~thread_counts ~ops_per_thread:ops maker)
         [
           Harness.Pq.On_real.mound_lf;
           Harness.Pq.On_real.multiqueue ~domains:max_t ();
         ])
  in
  let rows = List.concat rows in
  let doc =
    Harness.Bench_json.(
      panel_codec.enc
        {
          (of_panel ~panel:"rankerror" ~seed ~warmup ~measured_trials:trials
             ~ops_per_thread:ops ~init_size:0 series)
          with
          rank = Some rows;
        })
  in
  (match Harness.Bench_json.validate doc with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "BENCH_rankerror.json invalid: %s" e));
  let path = Filename.concat out "BENCH_rankerror.json" in
  Harness.Bench_json.write_file path (Harness.Bench_json.to_string doc);
  Format.fprintf ppf "@.[rank] rankerror -> %s@." path;
  Format.fprintf ppf "%-18s %7s %12s %12s %10s %10s %10s@." "structure"
    "threads" "mean rank" "max rank" "extracted" "empty" "unmatched";
  List.iter
    (fun ({ structure; threads; stats = s } : Harness.Rank_exp.row) ->
      Format.fprintf ppf "%-18s %7d %12.3f %12d %10d %10d %10d@." structure
        threads s.mean_error s.max_error s.extractions s.empty_returns
        s.unmatched)
    rows;
  Format.pp_print_flush ppf ()

let rank_cmd =
  let doc =
    "Measure the rank error of the relaxed MultiQueue against the exact \
     LF-mound calibration baseline: concurrent timestamped drains \
     replayed through a Fenwick-tree oracle, recorded as \
     BENCH_rankerror.json (mound-bench/1 with a rank section)."
  in
  Cmd.v (Cmd.info "rank" ~doc)
    Term.(
      const run_rank $ threads_arg $ trials_arg $ warmup_arg $ quick_flag
      $ out_arg)

(* ---------- ablations & extensions ---------- *)

let run_ablation which quick =
  let scale = if quick then 1 lsl 9 else 1 lsl 12 in
  (match which with
  | "threshold" ->
      Harness.Ablation.(
        print_threshold ppf (threshold_sweep ~ops_per_thread:scale ()))
  | "kcss" ->
      Harness.Ablation.(print_kcss ppf (kcss_vs_dcss ~ops_per_thread:scale ()))
  | "approx" ->
      Harness.Ablation.(
        print_approx ppf
          (approx_quality ~n:(scale * 8) ~samples:(scale * 2) ()))
  | "costs" ->
      Harness.Ablation.(print_primitives ppf (primitive_costs ()));
      Format.fprintf ppf "@.";
      Harness.Ablation.(print_costs ppf (sync_costs ()))
  | other ->
      (* unreachable: the argument parser only admits the four names *)
      invalid_arg other);
  Format.pp_print_flush ppf ()

let ablation_arg =
  Arg.(
    required
    & pos 0 (some (enum [ ("threshold", "threshold"); ("kcss", "kcss");
                          ("approx", "approx"); ("costs", "costs") ])) None
    & info [] ~docv:"WHICH"
        ~doc:"One of: threshold, kcss, approx, costs.")

let ablation_cmd =
  let doc =
    "Ablations: THRESHOLD sweep, k-CSS vs DCSS insert, probabilistic \
     extract-min quality, synchronization-cost accounting."
  in
  Cmd.v (Cmd.info "ablation" ~doc)
    Term.(const run_ablation $ ablation_arg $ quick_flag)

(* ---------- mound shape visualization ---------- *)

let run_shape n order =
  let order =
    match order with
    | "increasing" -> Harness.Workload.Increasing
    | "decreasing" -> Harness.Workload.Decreasing
    | _ -> Harness.Workload.Random_order
  in
  let module S = Mound.Seq_int in
  let q = S.create ~seed:5L () in
  let keys = Harness.Workload.keys ~order ~n ~seed:106L in
  Array.iter (S.insert q) keys;
  let stats = Harness.Tables.mound_stats q in
  Format.fprintf ppf
    "Mound shape after %d %s inserts (depth %d, longest list %d)@." n
    (Harness.Workload.order_name order)
    stats.depth
    (Mound.Stats.longest_list stats);
  Format.fprintf ppf "%-6s %-30s %-9s %-11s %s@." "level" "occupancy"
    "elements" "avg list" "fullness";
  Array.iter
    (fun (lv : Mound.Stats.level) ->
      let frac = Mound.Stats.fullness lv /. 100. in
      let bar_w = 30 in
      let filled =
        max (if frac > 0. then 1 else 0)
          (int_of_float (frac *. float_of_int bar_w))
      in
      let bar = String.make filled '#' ^ String.make (bar_w - filled) '.' in
      Format.fprintf ppf "%-6d %s %8d %10.1f  %6.2f%%@." lv.level bar
        lv.elements
        (Mound.Stats.avg_list_len lv)
        (Mound.Stats.fullness lv))
    stats.levels;
  Format.pp_print_flush ppf ()

let shape_cmd =
  let n_arg =
    Arg.(value & opt int (1 lsl 16) & info [ "n" ] ~docv:"N" ~doc:"Insertions.")
  in
  let order_arg =
    Arg.(
      value
      & opt string "random"
      & info [ "order" ] ~docv:"ORDER"
          ~doc:"Key order: random, increasing or decreasing.")
  in
  let doc = "Visualize the level occupancy a mound develops." in
  Cmd.v (Cmd.info "shape" ~doc) Term.(const run_shape $ n_arg $ order_arg)

(* ---------- linearizability campaign ---------- *)

let run_lin histories =
  let structures =
    Harness.Pq.On_sim.
      [ mound_lf; mound_lock; coarse; stm_heap; hunt; skiplist; skiplist_lock ]
  in
  Format.fprintf ppf
    "Linearizability: %d histories each (4 threads x 7 mixed ops, \
     Wing-Gong checker on virtual-time stamps)@."
    histories;
  Format.fprintf ppf "%-18s %s@." "structure" "linearizable histories";
  List.iter
    (fun (maker : Harness.Pq.maker) ->
      let ok = ref 0 in
      for i = 1 to histories do
        let seed = Int64.of_int (9000 + (31 * i)) in
        let q = maker.make ~capacity:4096 in
        let rng = Prng.create seed in
        let scripts =
          List.init 4 (fun t ->
              List.init 7 (fun i ->
                  if Prng.int rng 2 = 0 then
                    `Insert ((t * 1000) + i + Prng.int rng 50)
                  else `Extract))
        in
        let pairs = List.map (fun s -> Harness.Lin.recorder q s) scripts in
        let bodies =
          Array.of_list (List.map (fun (b, _) -> fun _ -> b ()) pairs)
        in
        ignore (Sim.Sched.run ~seed bodies);
        let history = List.concat_map (fun (_, c) -> c ()) pairs in
        if Harness.Lin.check history then incr ok
      done;
      Format.fprintf ppf "%-18s %d/%d@." maker.name !ok histories)
    structures;
  Format.pp_print_flush ppf ()

let lin_cmd =
  let histories =
    Arg.(
      value & opt int 50
      & info [ "histories" ] ~docv:"N" ~doc:"Histories per structure.")
  in
  let doc =
    "Check recorded concurrent histories for linearizability (the \
     quiescently consistent structures are expected to fail some)."
  in
  Cmd.v (Cmd.info "lin" ~doc) Term.(const run_lin $ histories)

(* ---------- chaos: crash-stop sweeps under fault injection ---------- *)

let run_chaos structure seed plan_seed cas_fail delay full =
  let plan =
    { (Chaos.default ~seed:(Int64.of_int plan_seed)) with
      cas_fail_permil = cas_fail;
      delay_permil = delay;
    }
  in
  let stride = if full then 1 else 5 in
  let seed = Int64.of_int seed in
  let sweeps =
    match structure with
    | "lf" -> [ Harness.Chaos_exp.sweep_lf ~plan ~stride ~seed () ]
    | "lock" -> [ Harness.Chaos_exp.sweep_lock ~plan ~stride ~seed () ]
    | _ ->
        [
          Harness.Chaos_exp.sweep_lf ~plan ~stride ~seed ();
          Harness.Chaos_exp.sweep_lock ~plan ~stride ~seed ();
        ]
  in
  List.iter
    (fun s ->
      Harness.Chaos_exp.print_sweep ppf s;
      Format.fprintf ppf "@.")
    sweeps;
  Format.pp_print_flush ppf ()

let chaos_cmd =
  let structure_arg =
    Arg.(
      value
      & opt (enum [ ("lf", "lf"); ("lock", "lock"); ("both", "both") ]) "both"
      & info [ "structure" ] ~docv:"S"
          ~doc:"Mound variant to sweep: lf, lock or both.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Scheduler seed; with the plan seed it makes runs \
                byte-for-byte reproducible.")
  in
  let plan_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "plan-seed" ] ~docv:"SEED" ~doc:"Fault-stream seed.")
  in
  let cas_fail_arg =
    Arg.(
      value & opt int 30
      & info [ "cas-fail" ] ~docv:"PERMIL"
          ~doc:"Spurious compare-and-set failure rate, per mil.")
  in
  let delay_arg =
    Arg.(
      value & opt int 20
      & info [ "delay" ] ~docv:"PERMIL"
          ~doc:"Adversarial delay-burst rate, per mil.")
  in
  let full_flag =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Crash at every victim access instead of every fifth.")
  in
  let doc =
    "Crash-stop sweep under deterministic fault injection: kill a thread \
     at each of its shared accesses in turn; the lock-free mound's \
     survivors must complete a linearizable, element-conserving history, \
     while the locking mound's wedges are detected and reported."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run_chaos $ structure_arg $ seed_arg $ plan_seed_arg
      $ cas_fail_arg $ delay_arg $ full_flag)

(* ---------- dpor: systematic schedule exploration ---------- *)

let run_dpor program budget steps schedule trace =
  match program with
  | None ->
      Format.fprintf ppf "programs: %s@."
        (String.concat ", " (Harness.Dpor_exp.names ()));
      Format.pp_print_flush ppf ();
      `Ok ()
  | Some name -> (
      match Harness.Dpor_exp.find name with
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown program %S (try `repro dpor' for the \
                              list)" name )
      | Some prog -> (
          match schedule with
          | Some s -> (
              match Sim.Sched.Schedule.of_string s with
              | exception Invalid_argument msg -> `Error (false, msg)
              | sched ->
                  let out = Check.run_schedule prog sched in
                  if trace then
                    List.iter
                      (fun (e : Check.event) ->
                        Format.fprintf ppf "%6d  t%d %-5s cell %d%s@." e.step
                          e.tid
                          (match e.kind with
                          | Read -> "read"
                          | Write -> "write"
                          | Cas -> "cas")
                          e.cell
                          (if e.wrote then "" else " (no write)"))
                      out.Check.trace;
                  Format.fprintf ppf
                    "%s: replayed %d decisions (schedule pinned %d)@." name
                    out.Check.followed (List.length sched);
                  if out.Check.wedged <> [] then
                    Format.fprintf ppf "wedged: [%s]@."
                      (String.concat "; "
                         (List.map string_of_int out.Check.wedged));
                  (match out.Check.replay_failure with
                  | Some f -> Format.fprintf ppf "FAILED: %a@." Check.pp_failure f
                  | None -> Format.fprintf ppf "no failure@.");
                  Format.pp_print_flush ppf ();
                  `Ok ())
          | None ->
              let config =
                { Check.default_config with
                  max_schedules = budget;
                  max_steps = steps;
                }
              in
              let r = Check.explore ~config prog in
              Format.fprintf ppf "%a@." Check.pp_report r;
              Format.pp_print_flush ppf ();
              `Ok ()))

let dpor_cmd =
  let program_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:"Catalog program to explore (omit to list them).")
  in
  let budget_arg =
    Arg.(
      value & opt int Check.default_config.max_schedules
      & info [ "budget" ] ~docv:"N" ~doc:"Execution budget.")
  in
  let steps_arg =
    Arg.(
      value & opt int Check.default_config.max_steps
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Per-execution scheduling-decision bound.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:"Replay one schedule (e.g. a counterexample like \
                $(i,0*3.1.0*2)) instead of exploring.")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"With --schedule: print every committed shared access.")
  in
  let doc =
    "Model-check a catalog program: DPOR exploration of every \
     inequivalent schedule, with vector-clock race detection and \
     spin-deadlock detection; or replay one counterexample schedule."
  in
  Cmd.v (Cmd.info "dpor" ~doc)
    Term.(
      ret (const run_dpor $ program_arg $ budget_arg $ steps_arg
           $ schedule_arg $ trace_flag))

(* ---------- progress: liveness certification ---------- *)

let progress_entries name =
  match name with
  | None -> Ok Harness.Progress_exp.catalog
  | Some n -> (
      match Harness.Progress_exp.find n with
      | Some e -> Ok [ e ]
      | None ->
          Error
            (Printf.sprintf "unknown program %S (programs: %s)" n
               (String.concat ", " (Harness.Progress_exp.names ()))))

let run_progress program quick seed prefix pump =
  let config =
    if quick then Liveness.quick_config else Liveness.default_config
  in
  match (prefix, pump) with
  | None, None -> (
      match progress_entries program with
      | Error msg -> `Error (false, msg)
      | Ok entries ->
          let all_ok =
            List.fold_left
              (fun acc (e : Harness.Progress_exp.entry) ->
                let r = Liveness.certify ~config e.program in
                Format.fprintf ppf "%a@." Liveness.pp_report r;
                (match e.last_ops () with
                | Some ops ->
                    Format.fprintf ppf "  counters: %a@." Mound.Stats.Ops.pp
                      ops
                | None -> ());
                Format.fprintf ppf "@.";
                acc && r.Liveness.inconclusive = 0)
              true entries
          in
          Format.pp_print_flush ppf ();
          if all_ok then `Ok ()
          else `Error (false, "some runs were inconclusive (raise the budget)")
      )
  | Some p, Some s -> (
      match progress_entries program with
      | Error msg -> `Error (false, msg)
      | Ok [ e ] -> (
          match
            ( Sim.Sched.Schedule.of_string p,
              Sim.Sched.Schedule.of_string s )
          with
          | exception Invalid_argument msg -> `Error (false, msg)
          | prefix, pump ->
              let seed = Int64.of_int seed in
              let reproduced =
                Liveness.run_cycle ~seed e.program ~prefix ~pump
              in
              Format.fprintf ppf "%s: cycle %s@." e.name
                (if reproduced then "REPRODUCED (non-progress confirmed)"
                 else "did not reproduce");
              Format.pp_print_flush ppf ();
              `Ok ())
      | Ok _ -> `Error (false, "--prefix/--pump replay needs a PROGRAM"))
  | _ -> `Error (false, "--prefix and --pump must be given together")

let progress_cmd =
  let program_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:"Catalog program to certify (default: all).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed for replay.")
  in
  let prefix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prefix" ] ~docv:"SCHED"
          ~doc:"Replay: decisions before the cycle (e.g. $(i,0*3.1.0*2)).")
  in
  let pump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pump" ] ~docv:"SCHED"
          ~doc:"Replay: one period of the repeating cycle.")
  in
  let doc =
    "Certify progress properties on the liveness catalog: drive each \
     program under fair and thread-suspension adversaries hunting \
     non-progress cycles (livelock, deadlock, starvation), report \
     worst-case starvation bounds, and print the structures' dynamic \
     near-miss counters; or replay a reported cycle with \
     --prefix/--pump."
  in
  Cmd.v (Cmd.info "progress" ~doc)
    Term.(
      ret
        (const run_progress $ program_arg $ quick_flag $ seed_arg
       $ prefix_arg $ pump_arg))

(* ---------- lint: every rule on the Parsetree ---------- *)

(* One rule per line, tab-separated name/description, straight from the
   registry — what CI and the README table are checked against so
   neither can drift from the registered rule set. *)
let run_list_rules () =
  List.iter
    (fun (name, descr) -> Printf.printf "%s\t%s\n" name descr)
    Analysis.rule_table

let run_lint list_rules rule json roots =
  if list_rules then (run_list_rules (); exit 0);
  let roots = if roots = [] then [ "lib" ] else roots in
  let findings = Analysis.scan_trees roots in
  let findings =
    match rule with
    | None -> findings
    | Some r -> List.filter (fun f -> f.Analysis.rule = r) findings
  in
  if json then begin
    let doc = Harness.Lint_json.(codec.enc (doc ~roots ~rule findings)) in
    (match Harness.Lint_json.validate doc with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "mound-lint document invalid: %s" e));
    print_string (Harness.Bench_json.to_string doc)
  end
  else begin
    List.iter
      (fun f -> Format.fprintf ppf "%a@." Analysis.pp_finding f)
      findings;
    Format.fprintf ppf "lint: %d finding(s)@." (List.length findings);
    Format.pp_print_flush ppf ()
  end;
  if findings <> [] then exit 1

(* A strict name conv: an unknown rule is a clear error pointing at the
   registry listing, never a silent no-match filter. *)
let rule_conv =
  let parse s =
    if List.mem_assoc s Analysis.rule_table then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf
              "unknown rule %S; run 'repro lint --list-rules' for the \
               registered set"
              s))
  in
  Arg.conv (parse, Format.pp_print_string)

let lint_cmd =
  let rule_arg =
    Arg.(
      value
      & opt (some rule_conv) None
      & info [ "rule" ] ~docv:"RULE"
          ~doc:
            "Report only findings of $(docv) (see --list-rules for the \
             registered set).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit machine-readable JSON (schema mound-lint/1).")
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "list-rules" ]
          ~doc:
            "Print the registered rule table (one rule per line: \
             name and description, tab-separated) and exit.")
  in
  let roots_arg =
    Arg.(
      value & pos_all dir []
      & info [] ~docv:"DIR" ~doc:"Trees to scan (default: lib).")
  in
  let doc =
    "Run the lint over source trees: every rule on each file's \
     Parsetree (runtime boundary, mutable-atomic, the helping \
     discipline, publication safety, and the dataflow rules aba-risk / \
     atomicity / layout), through one waiver machinery."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run_lint $ list_rules_arg $ rule_arg $ json_arg $ roots_arg)

(* ---------- mutate: mutation engine + kill matrix ---------- *)

let run_list_ops () =
  List.iter
    (fun (o : Analysis.Mutate.op) ->
      Printf.printf "%s\t%s\t%s\t%s\n" o.op_name
        (String.concat "," o.op_rules)
        (Option.value o.op_twin ~default:"-")
        o.op_descr)
    Analysis.Mutate.catalog

(* The scan context: everything the core protocols link against, so
   cross-module effects (Backoff.Make reaching cpu_relax, the Mcas
   substrate cut) resolve exactly as in the shipped-tree lint. Mutation
   targets are the core implementation files only. *)
let mutation_context_roots = [ "lib/core"; "lib/mcas"; "lib/runtime" ]

let read_context () =
  List.concat_map Analysis.files_under mutation_context_roots
  |> List.sort compare
  |> List.map (fun p -> (p, Analysis.read_file p))

let mutation_targets ~file context =
  List.filter
    (fun (p, _) ->
      String.length p >= 9
      && String.sub p 0 9 = "lib/core/"
      && Filename.check_suffix p ".ml"
      && match file with
         | None -> true
         | Some f -> p = f || Filename.basename p = f)
    context

let run_mutate list_ops op file json out =
  if list_ops then (run_list_ops (); exit 0);
  let context = read_context () in
  let targets = mutation_targets ~file context in
  if targets = [] then
    failwith
      (match file with
      | Some f -> Printf.sprintf "no mutation target named %S under lib/core" f
      | None -> "no mutation targets found; run from the repository root");
  let ops =
    match op with None -> Analysis.Mutate.op_names | Some o -> [ o ]
  in
  let mutants = Analysis.Mutate.mutants ~ops targets in
  let matrix =
    try Analysis.killmatrix ~context mutants
    with Analysis.Killmatrix.Dirty_context fs ->
      List.iter
        (fun f -> Format.fprintf ppf "%a@." Analysis.pp_finding f)
        fs;
      Format.pp_print_flush ppf ();
      failwith "pristine tree not clean; fix the findings above first"
  in
  let rows = Harness.Mutation_exp.escalate matrix in
  let d =
    Harness.Mutation_json.doc ~files:matrix.k_files ~rules:matrix.k_rules rows
  in
  let doc = Harness.Mutation_json.codec.enc d in
  (match Harness.Mutation_json.validate doc with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "mound-mutation document invalid: %s" e));
  (match out with
  | Some path ->
      Harness.Bench_json.write_file path (Harness.Bench_json.to_string doc);
      Format.fprintf ppf "[mutate] matrix -> %s@." path
  | None -> ());
  if json then print_string (Harness.Bench_json.to_string doc)
  else begin
    Format.fprintf ppf "%-40s %-12s %s@." "mutant" "status" "killed by";
    List.iter
      (fun (r : Harness.Mutation_exp.row) ->
        Format.fprintf ppf "%-40s %-12s %s@." r.id r.status r.detail)
      rows;
    Format.fprintf ppf "@.kill rate: %d/%d (%.1f%%)@." d.killed d.count
      (100. *. d.kill_rate);
    Format.fprintf ppf "rule kills:@.";
    List.iter
      (fun (rule, n) -> Format.fprintf ppf "  %-22s %d@." rule n)
      d.rule_kills;
    let gaps =
      List.filter (fun (r : Harness.Mutation_exp.row) -> r.status = "gap") rows
    in
    if gaps <> [] then begin
      Format.fprintf ppf "@.%d soundness gap(s):@." (List.length gaps);
      List.iter
        (fun (r : Harness.Mutation_exp.row) -> Format.fprintf ppf "  %s@." r.id)
        gaps
    end;
    Format.pp_print_flush ppf ()
  end

let mutate_cmd =
  let op_conv =
    let parse s =
      if List.mem s Analysis.Mutate.op_names then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf
                "unknown operator %S; run 'repro mutate --list-ops' for the \
                 catalog"
                s))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let op_arg =
    Arg.(
      value
      & opt (some op_conv) None
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Apply only the named operator (see --list-ops for the catalog).")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Mutate only the named lib/core file (basename, e.g. \
                lf_mound.ml).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit machine-readable JSON (schema mound-mutation/1).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Also write the validated matrix artifact to $(docv).")
  in
  let list_ops_arg =
    Arg.(
      value & flag
      & info [ "list-ops" ]
          ~doc:
            "Print the operator catalog (one operator per line: name, \
             target rules, dynamic twin, description, tab-separated) and \
             exit.")
  in
  let doc =
    "Generate Parsetree mutants of the lib/core concurrency protocols, \
     run each through the full static rule union, escalate survivors to \
     the canned dynamic twins, and report the mutant × rule kill matrix \
     (schema mound-mutation/1)."
  in
  Cmd.v (Cmd.info "mutate" ~doc)
    Term.(
      const run_mutate $ list_ops_arg $ op_arg $ file_arg $ json_arg $ out_arg)

(* ---------- everything ---------- *)

let run_all quick =
  run_table 1 quick;
  run_table 2 quick;
  run_table 3 quick;
  run_table 4 quick;
  run_fig2 None None quick false;
  List.iter
    (fun w -> run_ablation w quick)
    [ "costs"; "threshold"; "kcss"; "approx" ]

let all_cmd =
  let doc = "Reproduce every table and figure, in paper order." in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run_all $ quick_flag)

let () =
  let doc = "Reproduction of Liu & Spear, Mounds (ICPP 2012)" in
  let info = Cmd.info "repro" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table_cmd 1; table_cmd 2; table_cmd 3; table_cmd 4; fig2_cmd;
            overload_cmd; rank_cmd; ablation_cmd;
            lin_cmd;
            chaos_cmd; dpor_cmd;
            progress_cmd; shape_cmd; lint_cmd; mutate_cmd; all_cmd;
          ]))
