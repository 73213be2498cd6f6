(** Wall-clock trials on real OCaml domains for the overload scenarios
    and, through {!run_cell} and {!timed_trial}, the rank-error drains
    of {!Rank_exp}: a barrier-synchronized start and a multi-trial
    protocol (warmup trials discarded, [trials] measured trials per
    cell, median / min / max / stddev reported). The clock origin is
    read before the start barrier opens and each domain records its own
    start/stop stamps, so per-thread skew is visible in the results. The
    core operations' wall-clock throughput is measured by [bench/perf],
    not here. *)

type thread_point = {
  tid : int;
  start_s : float;  (** seconds after the trial's clock origin *)
  stop_s : float;
  ops : int;
}

type trial = {
  seconds : float;  (** clock origin (pre-barrier) → last worker stop *)
  ops : int;
  throughput : float;  (** elements per second, wall clock *)
  skew_s : float;  (** latest worker start − earliest worker start *)
  thread_points : thread_point list;
}

type summary = {
  median : float;
  tp_min : float;
  tp_max : float;
  stddev : float;
}

type cell = {
  threads : int;
  trials : trial list;  (** measured trials only, in run order *)
  summary : summary;
  counters : Mound.Stats.Ops.t option;
      (** dynamic progress counters from the last measured trial *)
}

type series = { structure : string; cells : cell list }

val run_cell :
  ?seed:int64 ->
  ?warmup:int ->
  ?trials:int ->
  threads:int ->
  (seed:int64 -> trial * 'a) ->
  cell * 'a list
(** [run_cell ~threads run] is one cell's trial protocol: [warmup]
    (default 1) discarded runs of [run], then [trials] (default 3)
    measured ones, measured trial [i] seeded [seed + 1000·i] (default
    seed 7) and warmup [i] [seed − 1000·i]. Returns the cell, with
    [counters] unset, and the measured runs' second components in run
    order. *)

val timed_trial : threads:int -> (int -> int) -> trial
(** [timed_trial ~threads body] runs [body tid] on each of [threads]
    fresh domains released together from a start barrier; [body]
    returns the operations its domain completed. The clock origin is
    read before the barrier opens, and the trial spans origin → last
    domain stop. *)

(** {2 Overload scenarios}

    Each runs the structure behind the {!Mound.Bounded} admission
    front-end and measures throughput {e and} degradation: the cell's
    [counters] slot merges the front-end's shed / rejected / timeout
    counts with the structure's own retry counters, so the
    mound-bench/1 panels record degradation under regression guard. *)

type overload_scenario =
  | Bursty  (** spikes above the watermark alternating with drains (Shed) *)
  | Overcap  (** sustained 2x over-capacity, two inserts per extract (Reject) *)
  | Zipf_mix  (** balanced mix under Zipfian keys: root pressure (Shed) *)

val scenario_name : overload_scenario -> string

val scenario_of_string : string -> overload_scenario option

val pq_ops : (Pq.t, int) Mound.Bounded.Make(Runtime.Real).ops
(** Any handle as a {!Mound.Bounded} substrate. [extract_approx]
    forwards the probe depth the front-end asks for, so Shed evicts
    from deep in the mound, away from the minimum. *)

val run_overload_trial :
  ?seed:int64 ->
  scenario:overload_scenario ->
  threads:int ->
  ops_per_thread:int ->
  capacity:int ->
  Pq.maker ->
  trial * Mound.Stats.Ops.t option
(** One timed run with the queue behind a Bounded front-end at
    [capacity]. Every admission decision — including a rejection —
    counts as a completed operation: overload throughput measures how
    fast the front-end disposes of traffic, not just how much it
    accepts. *)

val run_overload_cell :
  ?seed:int64 ->
  ?warmup:int ->
  ?trials:int ->
  scenario:overload_scenario ->
  threads:int ->
  ops_per_thread:int ->
  capacity:int ->
  Pq.maker ->
  cell

val run_overload_series :
  ?seed:int64 ->
  ?warmup:int ->
  ?trials:int ->
  scenario:overload_scenario ->
  thread_counts:int list ->
  ops_per_thread:int ->
  capacity:int ->
  Pq.maker ->
  series
