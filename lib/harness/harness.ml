(** Experiment harness: everything needed to regenerate the paper's
    evaluation.

    - {!Tables}: the sequential structure experiments (Tables I–IV);
    - {!Fig2}: the throughput-versus-threads panels (Fig. 2), run on the
      virtual-time simulator under the [niagara2] and [x86] machine
      profiles;
    - {!Ablation}: THRESHOLD sweep, k-CSS vs DCSS insert, probabilistic
      extract-min quality, and per-operation synchronization-cost
      accounting;
    - {!Sim_exp}: simulator throughput cells behind {!Fig2};
    - {!Real_exp}: timed real-domain trials (barrier start, per-domain
      stamps) behind [repro overload] and {!Rank_exp};
    - {!Bench_json}: the JSON kit and its two-way {!Bench_json.Codec},
      in which each artifact schema is one description that yields its
      printer, decoder and validator; mound-bench/1 (the overload and
      rank-error panels) is described there;
    - {!Pq}: uniform handles over every priority-queue implementation;
    - {!Workload}: panel and key-order definitions;
    - {!Barrier}: start-line synchronization for real-domain runs;
    - {!Lin}: Wing–Gong linearizability checking of recorded histories,
      exact or rank-relaxed;
    - {!Rank_exp}: rank-error measurement for the relaxed MultiQueue —
      timestamped concurrent drains replayed against an oracle
      multiset, behind [repro rank];
    - {!Chaos_exp}: crash-stop sweeps under fault injection — the
      progress-guarantee evaluation behind [repro chaos];
    - {!Dpor_exp}: the fixed small programs model-checked by
      {!Check.explore} — behind [repro dpor] and the DPOR test tier;
    - {!Progress_exp}: the fixed programs certified by
      {!Liveness.certify} — behind [repro progress] and the progress
      test tier;
    - {!Watchdog}: wall-clock join watchdog turning a wedged real-domain
      test into a loud fast failure instead of a CI hang;
    - {!Lint_json}: the mound-lint/1 description behind
      [repro lint --json];
    - {!Mutation_exp}: dynamic escalation twins for kill-matrix
      survivors, triaging each mutant into one matrix row — behind
      [repro mutate] and the mutation test tier;
    - {!Mutation_json}: the mound-mutation/1 description of those rows
      and their tallies, behind [repro mutate --json]. *)

module Barrier = Barrier
module Pq = Pq
module Workload = Workload
module Sim_exp = Sim_exp
module Real_exp = Real_exp
module Bench_json = Bench_json
module Lint_json = Lint_json
module Tables = Tables
module Fig2 = Fig2
module Ablation = Ablation
module Lin = Lin
module Rank_exp = Rank_exp
module Chaos_exp = Chaos_exp
module Dpor_exp = Dpor_exp
module Progress_exp = Progress_exp
module Watchdog = Watchdog
module Mutation_exp = Mutation_exp
module Mutation_json = Mutation_json
