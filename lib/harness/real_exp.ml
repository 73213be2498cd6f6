(* lint: allow-file — this module IS the real-hardware driver: it spawns
   domains and reads the wall clock by design. *)

(** Wall-clock trials on real OCaml domains for the overload scenarios
    (and, through {!run_cell} and {!timed_trial}, the rank-error drains
    of {!Rank_exp}).

    Trial protocol: every cell (structure × scenario × thread count)
    runs [warmup] discarded trials followed by [trials] measured ones,
    each against a freshly built queue, and reports median / min / max /
    stddev throughput plus per-thread timing so start-skew is visible in
    the output.

    Timing protocol: the main thread reads the clock {e before} joining
    the start barrier, so no worker operation can land outside the timed
    window; each domain additionally records its own start and stop
    stamps (relative to that origin) after it clears the barrier. A
    trial's span is origin → last worker stop. The clock is
    [Runtime.Real.monotonic_ns]: a wall-clock step cannot move a stamp,
    and stamps resolve nanoseconds, not [Unix.gettimeofday]'s
    microsecond steps.

    The core operations' wall-clock throughput is measured by the
    [bench/perf] benchmark, not here. *)

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

(** One timed run of [body tid] on each of [threads] fresh domains. The
    domains wait at a start barrier; [body] returns the operations its
    domain completed. *)
let timed_trial ~threads (body : int -> int) =
  let barrier = Barrier.create (threads + 1) in
  let counts = Array.make threads 0 in
  let starts = Array.make threads 0 in
  let stops = Array.make threads 0 in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            Barrier.wait barrier;
            starts.(tid) <- Runtime.Real.monotonic_ns ();
            counts.(tid) <- body tid;
            stops.(tid) <- Runtime.Real.monotonic_ns ()))
  in
  (* Clock origin is taken before the barrier opens: early worker
     operations cannot land outside the timed window. *)
  let t0 = Runtime.Real.monotonic_ns () in
  Barrier.wait barrier;
  Array.iter Domain.join domains;
  let secs ns = float_of_int ns *. 1e-9 in
  let seconds = secs (Array.fold_left max min_int stops - t0) in
  let ops = Array.fold_left ( + ) 0 counts in
  let first_start = Array.fold_left min max_int starts in
  let last_start = Array.fold_left max min_int starts in
  {
    seconds;
    ops;
    throughput = (if seconds > 0. then float_of_int ops /. seconds else 0.);
    skew_s = secs (last_start - first_start);
    thread_points =
      List.init threads (fun tid ->
          {
            tid;
            start_s = secs (starts.(tid) - t0);
            stop_s = secs (stops.(tid) - t0);
            ops = counts.(tid);
          });
  }

let summarize trials =
  let tps = List.map (fun t -> t.throughput) trials in
  let sorted = List.sort compare tps in
  let n = List.length sorted in
  let median =
    if n = 0 then 0.
    else if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.
  in
  let tp_min = match sorted with [] -> 0. | x :: _ -> x in
  let tp_max = List.fold_left max 0. sorted in
  let mean = List.fold_left ( +. ) 0. tps /. float_of_int (max 1 n) in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. tps
    /. float_of_int (max 1 n)
  in
  { median; tp_min; tp_max; stddev = sqrt var }

(* The trial protocol of every cell: measured trial [i] runs with seed
   [seed + 1000·i], warmup [i] with [seed − 1000·i]. *)
let run_cell ?(seed = 7L) ?(warmup = 1) ?(trials = 3) ~threads run =
  let trial_seed i = Int64.add seed (Int64.of_int (1000 * i)) in
  for i = 1 to warmup do
    ignore (run ~seed:(trial_seed (-i)))
  done;
  let measured = List.init trials (fun i -> run ~seed:(trial_seed i)) in
  let timings = List.map fst measured in
  ( { threads; trials = timings; summary = summarize timings; counters = None },
    List.map snd measured )

(* ----- overload scenarios ----- *)

(** Overload scenarios: each runs the structure behind the {!Mound.Bounded}
    admission front-end and measures throughput {e and} degradation
    (shed / rejected / timeout counts travel in the cell's [counters]
    slot, so the mound-bench/1 panels record them under regression
    guard).

    - [Bursty]: arrival in bursts well above the watermark, alternating
      with drain phases — exercises shedding and recovery from spikes.
    - [Overcap]: sustained 2× over-capacity traffic (two inserts per
      extract) — exercises steady-state rejection.
    - [Zipf_mix]: balanced mix under Zipfian keys — skew pressure near
      the root rather than admission pressure. *)
type overload_scenario = Bursty | Overcap | Zipf_mix

let scenario_name = function
  | Bursty -> "bursty"
  | Overcap -> "overcap"
  | Zipf_mix -> "zipf"

let scenario_of_string = function
  | "bursty" -> Some Bursty
  | "overcap" -> Some Overcap
  | "zipf" | "zipfian" -> Some Zipf_mix
  | _ -> None

let scenario_policy : overload_scenario -> Mound.Bounded.Make(Runtime.Real).policy
    = function
  | Bursty -> Shed
  | Overcap -> Reject
  | Zipf_mix -> Shed

module B = Mound.Bounded.Make (Runtime.Real)

let pq_ops : (Pq.t, int) B.ops =
  {
    insert_until = (fun q ~deadline v -> q.Pq.insert_until ~deadline v);
    extract_min = (fun q -> q.Pq.extract_min ());
    extract_min_until = (fun q ~deadline -> q.Pq.extract_min_until ~deadline);
    extract_approx = (fun ~max_level q -> q.Pq.extract_approx ~max_level ());
  }

let burst_len = 64

(* One thread's share of an overload scenario: every admission decision
   (including a rejection) counts as a completed operation — overload
   throughput measures how fast the front-end disposes of traffic, not
   just how much it accepts. *)
let run_overload_thread ~scenario ~(b : (Pq.t, int) B.t) ~rand ~ops () =
  let z = lazy (Workload.zipf ()) in
  let done_ = ref 0 in
  for i = 1 to ops do
    let inserting =
      match scenario with
      (* two insert bursts per drain burst: spikes that outrun draining,
         so occupancy climbs past any fixed watermark and shedding fires *)
      | Bursty -> i / burst_len mod 3 < 2
      | Overcap -> i mod 3 < 2
      | Zipf_mix -> rand 2 = 0
    in
    if inserting then begin
      let key =
        match scenario with
        | Zipf_mix -> Workload.zipf_key (Lazy.force z) ~rand
        | Bursty | Overcap -> rand Workload.key_range
      in
      match B.insert b key with
      | Mound.Intf.Ok () | Mound.Intf.Rejected -> incr done_
      | Mound.Intf.Timeout -> incr done_
    end
    else begin
      ignore (B.extract_min b);
      incr done_
    end
  done;
  !done_

(** One timed overload trial ({!timed_trial}), with the queue behind a
    Bounded front-end at [capacity]. The counter snapshot merges the
    front-end's shed/rejected/timeout counts with the structure's own
    retry counters. *)
let run_overload_trial ?(seed = 7L) ~scenario ~threads ~ops_per_thread
    ~capacity (maker : Pq.maker) =
  let q = maker.make ~capacity:(capacity + (threads * ops_per_thread)) in
  let b =
    B.make ~ops:pq_ops ~capacity ~policy:(scenario_policy scenario) q
  in
  let trial =
    timed_trial ~threads (fun tid ->
        let rng = Prng.for_thread ~seed ~id:tid in
        run_overload_thread ~scenario ~b
          ~rand:(fun bound -> Prng.int rng bound)
          ~ops:ops_per_thread ())
  in
  let counters = Mound.Stats.Ops.create () in
  Mound.Stats.Ops.add counters (B.counters b);
  Option.iter (Mound.Stats.Ops.add counters) (q.Pq.ops ());
  (trial, Some counters)

let run_overload_cell ?seed ?warmup ?trials ~scenario ~threads
    ~ops_per_thread ~capacity (maker : Pq.maker) =
  let cell, counters =
    run_cell ?seed ?warmup ?trials ~threads (fun ~seed ->
        run_overload_trial ~seed ~scenario ~threads ~ops_per_thread ~capacity
          maker)
  in
  (* the counters of the last measured trial *)
  { cell with counters = List.fold_left (fun _ c -> c) None counters }

let run_overload_series ?seed ?warmup ?trials ~scenario ~thread_counts
    ~ops_per_thread ~capacity (maker : Pq.maker) =
  {
    structure = maker.name;
    cells =
      List.map
        (fun threads ->
          run_overload_cell ?seed ?warmup ?trials ~scenario ~threads
            ~ops_per_thread ~capacity maker)
        thread_counts;
  }
