(* perf.exe: the repository's benchmark.

     perf.exe [run|trace] [--workload W|all] [--seed N] [--seconds S]
              [--domains 1|2] [--smoke] [--spec BENCHMARK.json] [-o FILE]
     perf.exe --workload W --seed N --seconds S --trace 0|1
     perf.exe compare PARENT.json... -- CHANGE.json...

   [run] measures the end-to-end metrics with tracing off; [trace] (or
   [--trace 1]) measures the per-layer ledger. Each workload prints a
   readable report and then, as its last line, one JSON object
   {correct, attempted, failed, metrics}. [-o] also writes (or extends)
   a mound-perf/1 document that [compare] reads. See README.md. *)

open Harness.Bench_json

type mode = Run | Trace

type sizes = {
  insert : int;
  drain : int;
  mixed_prefill : int;
  mixed_ops : int;
  vertices : int;
  substrate : int;  (** calls per substrate measurement *)
}

(* Element counts sit between powers of two on purpose: at 2^k a mound's
   final depth is a coin flip (2^19 inserts end 18 or 19 levels deep,
   24:16 over 40 seeds), and every extra level adds a whole row, so
   throughput and bytes_per_elem would be bimodal. At 0.75 or 0.875 x 2^k
   the depth came out the same for all 40 seeds, for the whole queue and
   for each of the MultiQueue's four inner queues. The counts give every
   trial at least ~100 ms and a run of 25 s at least 9 rounds. *)
let full =
  {
    insert = 3 lsl 17;
    drain = 7 lsl 14;
    mixed_prefill = 3 lsl 15;
    mixed_ops = 1 lsl 18;
    vertices = 1 lsl 16;
    substrate = 1 lsl 18;
  }

let smoke_sizes =
  let d n = n / 64 in
  {
    insert = d full.insert;
    drain = d full.drain;
    mixed_prefill = d full.mixed_prefill;
    mixed_ops = d full.mixed_ops;
    vertices = d full.vertices;
    substrate = d full.substrate;
  }

let degree = 8
let max_weight = 100
let min_trial_s = 0.05
let min_overlap = 0.9

type config = {
  mode : mode;
  workloads : Cell.workload list;
  seed : int;
  seconds : float;
  domains : int;
  smoke : bool;
  sizes : sizes;
  spec : string option;
  out : string option;
}

let warn warnings fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("warning: " ^ s);
      warnings := s :: !warnings)
    fmt

let median_time reps f =
  let times = ref [] and result = ref None in
  for _ = 1 to reps do
    let t0 = Clock.now () in
    result := Some (f ());
    times := Clock.seconds_since t0 :: !times
  done;
  (Option.get !result, Hist.median !times)

(* One-off set-up: the workload's inputs (and on sssp the reference
   solve), built [reps] times from the same seed to time it. *)
let make_input cfg w =
  let s = cfg.sizes and seed = Int64.of_int cfg.seed in
  let reps = if cfg.smoke then 1 else 3 in
  median_time reps (fun () ->
      match w with
      | Cell.Insert -> Cell.Keys (Inputs.keys (Inputs.stream seed 0) s.insert)
      | Drain -> Prefilled (Inputs.keys (Inputs.stream seed 1) s.drain)
      | Mixed ->
          let rng = Inputs.stream seed 2 in
          let pre = Inputs.keys rng s.mixed_prefill in
          Script (pre, Inputs.script rng s.mixed_ops)
      | Sssp ->
          let g =
            Inputs.graph (Inputs.stream seed 3) ~vertices:s.vertices ~degree ~max_weight
          in
          Graph (g, Inputs.reference g ~source:0))

let span_capacity s w =
  match w with
  | Cell.Insert -> s.insert
  | Drain -> s.drain + 16
  | Mixed -> s.mixed_ops
  | Sssp -> 16 * s.vertices

let domains_of cfg q = if Cell.name q = "seq" then 1 else cfg.domains

(* Warm-up round, then measured rounds while the next one (estimated by
   the longest so far) still fits the budget; at least 3, or exactly one
   un-warmed round under --smoke. *)
let rounds cfg ~budget f =
  if cfg.smoke then f 1 ~measured:true
  else begin
    let t0 = Clock.now () in
    f 0 ~measured:false;
    let longest = ref (Clock.seconds_since t0) and n = ref 0 in
    while !n < 3 || Clock.seconds_since t0 +. !longest <= budget do
      let r0 = Clock.now () in
      incr n;
      f !n ~measured:true;
      longest := Float.max !longest (Clock.seconds_since r0)
    done
  end

(* Structures in a seed-rotated order, so slow host drift hits each
   structure at every position. *)
let order cfg round =
  let k = (cfg.seed + round) mod List.length Cell.queues in
  List.filteri (fun i _ -> i >= k) Cell.queues @ List.filteri (fun i _ -> i < k) Cell.queues

(* Host normalization. On the 2-vCPU Xeon VM (2.1 GHz) the references
   below come from, memory-bound code runs up to 2x slower for seconds to
   minutes at a time (pure-ALU code drifts ~3%), which no median over a
   25-s run can absorb. A fixed calibration
   kernel ([Layers.calib_ms]) runs on the trial's domain count right
   before and right after every trial, and every time-based end-to-end
   value is scaled by [speed], the mean of the two over the reference
   below: the value the trial would have shown at that machine's usual
   memory speed. Over 10 seeds this halved the spread of the run medians
   (drain and mixed: 6-15% raw, 4-8% scaled). Raw values stay in the
   mound-perf/1 trial records. The references are the kernel's median
   times on that machine (~1000 calibrations over 20 runs). *)
let calib_ref_ms domains = if domains = 1 then 18.0 else 19.0

let speed (t : Cell.trial) = t.calib_ms /. calib_ref_ms t.domains

let latency q (t : Cell.trial) =
  let h = Hist.create () in
  Hist.merge_into ~dst:h t.hins;
  Hist.merge_into ~dst:h t.hext;
  Hist.quantile h q /. 1000.

let raw_ops_per_s (t : Cell.trial) = float_of_int t.elements /. t.seconds
let ops_per_s t = raw_ops_per_s t *. speed t
let p99_us t = latency 0.99 t /. speed t

(* --- what one workload's rounds produce -------------------------------- *)

type measured = {
  trials : Cell.trial list;  (** measured, untraced *)
  traced : Cell.trial list;
  all : Cell.trial list;  (** every trial run, warm-up included *)
  round_setup : float list;  (** per measured round: all structures' set-up *)
  minor_ns : int;  (** trace only: EV_MINOR time and major slices in trials *)
  major_slices : int;
}

let measure cfg ~pool ~gc w input =
  let cap = match cfg.mode with Trace -> span_capacity cfg.sizes w | Run -> 0 in
  let ctxs = Array.init 2 (fun _ -> Cell.ctx (if cap = 0 then Spans.none else Spans.create cap)) in
  let trials = ref [] and traced = ref [] and all = ref [] in
  let round_setup = ref [] and minor_ns = ref 0 and major_slices = ref 0 in
  let budget = match cfg.mode with Run -> cfg.seconds | Trace -> 0.85 *. cfg.seconds in
  rounds cfg ~budget (fun round ~measured ->
      let setup = ref 0. in
      List.iter
        (fun q ->
          let trial ~traced =
            let domains = domains_of cfg q in
            let calib_before = Layers.calib_ms ~pool ~domains in
            (* GC events are counted inside the trial window only *)
            let before () = Option.iter (fun g -> ignore (Layers.poll g)) gc in
            let after () =
              Option.iter
                (fun g ->
                  let ns, slices = Layers.poll g in
                  minor_ns := !minor_ns + ns;
                  major_slices := !major_slices + slices)
                gc
            in
            let t =
              Cell.trial q ~pool ~domains ~traced ~ctxs ~seed:(cfg.seed + round)
                ~bytes:(round = 1 && cfg.mode = Run) ~before ~after input
            in
            let t = { t with calib_ms = (calib_before +. Layers.calib_ms ~pool ~domains) /. 2. } in
            all := t :: !all;
            setup := !setup +. (t.setup_s /. speed t);
            t
          in
          match cfg.mode with
          | Run ->
              let t = trial ~traced:false in
              if measured then trials := t :: !trials
          | Trace ->
              (* alternate which of the pair runs first *)
              let a, b =
                if round land 1 = 0 then
                  let u = trial ~traced:false in
                  (u, trial ~traced:true)
                else
                  let v = trial ~traced:true in
                  (trial ~traced:false, v)
              in
              if measured then begin
                trials := a :: !trials;
                traced := b :: !traced
              end)
        (order cfg round);
      if measured then round_setup := !setup :: !round_setup);
  {
    trials = List.rev !trials;
    traced = List.rev !traced;
    all = List.rev !all;
    round_setup = !round_setup;
    minor_ns = !minor_ns;
    major_slices = !major_slices;
  }

let of_structure x l = List.filter (fun (t : Cell.trial) -> t.structure = x) l
let fsum (f : Cell.trial -> float) l = List.fold_left (fun a t -> a +. f t) 0. l
let isum (f : Cell.trial -> int) l = List.fold_left (fun a t -> a + f t) 0 l
let per_k num den = if den = 0 then 0. else 1000. *. float_of_int num /. float_of_int den

let counter f (t : Cell.trial) = match t.counters with Some o -> f o | None -> 0

let merged (f : Cell.trial -> Hist.t) trials =
  let h = Hist.create () in
  List.iter (fun t -> Hist.merge_into ~dst:h (f t)) trials;
  h

(* Every value is a list of per-trial (or per-round) samples; the metric
   is their median, reported with quartiles and n. *)
let end_to_end_samples ~oneoff_s m =
  List.concat_map
    (fun x ->
      let ts = of_structure x m.trials in
      [
        (x ^ ".ops_per_s", List.map ops_per_s ts);
        (x ^ ".p99_us", List.map p99_us ts);
        ( x ^ ".bytes_per_elem",
          List.filter_map
            (fun (t : Cell.trial) -> if Float.is_nan t.bytes_per_elem then None else Some t.bytes_per_elem)
            ts );
      ])
    Metrics.structures
  @ [ ("setup_s", List.map (fun s -> oneoff_s +. s) m.round_setup) ]

let per_layer_samples w m ~substrate =
  let one v = [ v ] in
  let queue x =
    let tr = of_structure x m.traced and un = of_structure x m.trials in
    let calls_h = merged (fun t -> t.hins) tr in
    Hist.merge_into ~dst:calls_h (merged (fun t -> t.hext) tr);
    let calls = isum (fun t -> t.calls) tr and inserts = isum (fun t -> t.inserts) tr in
    let extracts = isum (fun t -> t.extracts) tr in
    let n s = x ^ "." ^ s in
    [
      (n "call_ns.p50", one (Hist.quantile calls_h 0.5));
      (n "call_ns.p99", one (Hist.quantile calls_h 0.99));
      (n "words_per_op", one (fsum (fun t -> t.words) tr /. float_of_int (max 1 calls)));
      (n "empty_extracts_per_kop", one (per_k (isum (fun t -> t.empties) tr) extracts));
      (n "depth", List.map (fun (t : Cell.trial) -> float_of_int t.depth) tr);
      (n "pq_share", one (fsum (fun t -> t.busy_s) tr /. fsum (fun t -> t.window_s) tr));
      ( n "trace_overhead",
        one (Hist.median (List.map ops_per_s tr) /. Hist.median (List.map ops_per_s un)) );
    ]
    @
    match x with
    | "lf" ->
        [
          (n "insert_retries_per_kop", one (per_k (isum (counter (fun o -> o.insert_retries)) tr) inserts));
          (n "extract_retries_per_kop", one (per_k (isum (counter (fun o -> o.extract_retries)) tr) extracts));
          (n "helps_per_kop", one (per_k (isum (counter (fun o -> o.helps)) tr) calls));
          (n "root_fallbacks_per_kop", one (per_k (isum (counter (fun o -> o.root_fallbacks)) tr) inserts));
        ]
    | "lock" ->
        [
          (n "lock_spins_per_op", one (per_k (isum (counter (fun o -> o.lock_spins)) tr) calls /. 1000.));
          ( n "livelock_near_misses",
            List.map (fun t -> float_of_int (counter (fun o -> o.livelock_near_misses) t)) tr );
        ]
    | "mq" ->
        [
          (n "lock_spins_per_op", one (per_k (isum (counter (fun o -> o.lock_spins)) tr) calls /. 1000.));
          (n "extract_retries_per_kop", one (per_k (isum (counter (fun o -> o.extract_retries)) tr) extracts));
          ( n "pops_per_vertex",
            one
              (if w = Cell.Sssp then
                 float_of_int (isum (fun t -> t.pops) tr) /. float_of_int (max 1 (isum (fun t -> t.elements) tr))
               else 0.) );
        ]
    | _ -> []
  in
  let calls = isum (fun t -> t.calls) m.all in
  let per_mop n = one (1e6 *. float_of_int n /. float_of_int (max 1 calls)) in
  List.concat_map queue Metrics.structures
  @ List.map (fun (k, v) -> (k, one v)) substrate
  @ [
      ("gc.minor_per_mop", per_mop (isum (fun t -> t.minor_gcs) m.all));
      ("gc.major_per_mop", per_mop m.major_slices);
      ("gc.minor_pause_share", one (float_of_int m.minor_ns *. 1e-9 /. fsum (fun t -> t.window_s) m.all));
      ( "host.calib_ms",
        List.filter_map (fun (t : Cell.trial) -> if t.domains = 1 then Some t.calib_ms else None) m.all );
    ]

(* --- output ------------------------------------------------------------ *)

let num f = if Float.is_finite f then Num f else Null
let int n = Num (float_of_int n)

let summary samples =
  let q1, q3 = Hist.quartiles samples in
  Obj
    [
      ("median", num (Hist.median samples));
      ("q1", num q1);
      ("q3", num q3);
      ("n", int (List.length samples));
    ]

let result ~correct ~attempted ~failed values =
  Obj
    [
      ("correct", Bool correct);
      ("attempted", int attempted);
      ("failed", int failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, v) -> (name, Obj [ ("value", num v); ("unit", Str (Metrics.find name).unit) ]))
             values) );
    ]

let one_line j = String.concat "" (List.map String.trim (String.split_on_char '\n' (to_string j)))

let trial_json (t : Cell.trial) =
  Obj
    [
      ("structure", Str t.structure);
      ("domains", int t.domains);
      ("traced", Bool t.traced);
      ("ok", Bool (t.failure = None));
      ("seconds", num t.seconds);
      ("overlap", num t.overlap);
      ("calib_ms", num t.calib_ms);
      ("raw_ops_per_s", num (raw_ops_per_s t));
      ("raw_p99_us", num (latency 0.99 t));
      ("raw_p50_us", num (latency 0.5 t));
      ("latency_samples", int (Hist.count t.hins + Hist.count t.hext));
      ("raw_setup_s", num t.setup_s);
    ]

(* The traced trials aggregated per structure: span histograms and the
   self time of each parent span (trial or sssp.solve), i.e. its window
   minus the time its queue-call children cover. *)
let trace_json w m =
  Arr
    (List.map
       (fun x ->
         let tr = of_structure x m.traced in
         let window = fsum (fun t -> t.window_s) tr and busy = fsum (fun t -> t.busy_s) tr in
         Obj
           [
             ("structure", Str x);
             ("parent", Str (if w = Cell.Sssp then "sssp.solve" else "trial"));
             ("parent_s", num window);
             ("parent_self_s", num (window -. busy));
             ("spans", int (isum (fun t -> t.calls) tr));
             ("dropped", int (isum (fun t -> t.dropped) tr));
             (x ^ ".insert", Hist.to_json (merged (fun t -> t.hins) tr));
             (x ^ ".extract_min", Hist.to_json (merged (fun t -> t.hext) tr));
           ])
       Metrics.structures)

let header cfg (pool : Pool.t) =
  let g = Gc.get () in
  Obj
    [
      ("ocaml", Str Sys.ocaml_version);
      ("nproc", int (Domain.recommended_domain_count ()));
      ("domains", int cfg.domains);
      ("clock", Str "CLOCK_MONOTONIC, noalloc stub of bechamel.monotonic_clock");
      ( "gc",
        Obj
          [
            ("minor_heap_words_main", int g.minor_heap_size);
            ("minor_heap_words_worker", int pool.worker_minor_words);
            ("space_overhead", int g.space_overhead);
          ] );
      ( "sizes",
        Obj
          [
            ("insert", int cfg.sizes.insert);
            ("drain", int cfg.sizes.drain);
            ("mixed_prefill", int cfg.sizes.mixed_prefill);
            ("mixed_ops", int cfg.sizes.mixed_ops);
            ("sssp_vertices", int cfg.sizes.vertices);
            ("sssp_degree", int degree);
          ] );
    ]

(* --- one workload ------------------------------------------------------ *)

let run_workload cfg ~pool ~gc w =
  let warnings = ref [] in
  let input, raw_oneoff_s = make_input cfg w in
  let oneoff_s = raw_oneoff_s *. calib_ref_ms 1 /. Layers.calib_ms ~pool ~domains:1 in
  let m = measure cfg ~pool ~gc w input in
  let substrate =
    match cfg.mode with Trace -> Layers.substrate ~pool ~n:cfg.sizes.substrate | Run -> []
  in
  List.iter
    (fun (t : Cell.trial) ->
      Option.iter (fun why -> warn warnings "%s trial failed: %s" t.structure why) t.failure;
      if t.seconds < min_trial_s && not cfg.smoke then
        warn warnings "%s trial lasted %.0f ms (< %.0f ms)" t.structure (t.seconds *. 1e3) (min_trial_s *. 1e3);
      if t.domains > 1 && t.overlap < min_overlap && not cfg.smoke then
        warn warnings "%s domains' op windows overlap %.0f%% (< %.0f%%)" t.structure (t.overlap *. 100.)
          (min_overlap *. 100.);
      if t.dropped > 0 then warn warnings "%s dropped %d spans" t.structure t.dropped)
    (m.trials @ m.traced);
  let samples =
    match cfg.mode with
    | Run -> end_to_end_samples ~oneoff_s m
    | Trace -> per_layer_samples w m ~substrate
  in
  let failed = isum (fun (t : Cell.trial) -> if t.failure = None then 0 else t.calls) m.all in
  let res =
    result ~correct:(failed = 0) ~attempted:(isum (fun t -> t.calls) m.all) ~failed
      (List.map (fun (k, v) -> (k, Hist.median v)) samples)
  in
  let name = Cell.workload_name w in
  Printf.printf "== %s %s (seed %d, %d measured rounds, one-off set-up %.3f s)\n" name
    (match cfg.mode with Run -> "run" | Trace -> "trace")
    cfg.seed (List.length m.round_setup) oneoff_s;
  List.iter
    (fun (k, v) ->
      let q1, q3 = Hist.quartiles v in
      Printf.printf "  %-32s %14.4f %-8s [q1 %.4f, q3 %.4f, n %d]\n" k (Hist.median v)
        (Metrics.find k).unit q1 q3 (List.length v))
    samples;
  print_endline (one_line res);
  flush stdout;
  let run =
    Obj
      ([
         ("mode", Str (match cfg.mode with Run -> "run" | Trace -> "trace"));
         ("workload", Str name);
         ("seed", int cfg.seed);
         ("seconds", num cfg.seconds);
         ("rounds", int (List.length m.round_setup));
         ("raw_oneoff_setup_s", num raw_oneoff_s);
         ("warnings", Arr (List.rev_map (fun s -> Str s) !warnings));
         ("result", res);
         ("summary", Obj (List.map (fun (k, v) -> (k, summary v)) samples));
         ("trials", Arr (List.map trial_json (m.trials @ m.traced)));
       ]
      @ match cfg.mode with Trace -> [ ("trace", trace_json w m) ] | Run -> [])
  in
  (run, failed, List.map fst samples)

(* --- compare ----------------------------------------------------------- *)

let runs_of path =
  match member "runs" (load path) with Some (Arr l) -> l | _ -> failwith (path ^ ": no mound-perf/1 runs")

let metric_value run name =
  match member "result" run with
  | Some r -> (
      match member "metrics" r with
      | Some ms -> (
          match member name ms with
          | Some o -> ( match member "value" o with Some (Num v) -> Some v | _ -> None)
          | None -> None)
      | None -> None)
  | None -> None

(* The rule of the choosing-metrics guide, per (workload, metric): a gain
   needs at least 10 pairs, the change winning at least 9/10 of them, and
   the medians differing by more than the parent's interquartile range;
   otherwise the change is no worse (within the bound), regressed, or
   unresolved when either side's spread exceeds the bound and the change
   does not read better on every run. *)
let verdict (d : Metrics.decl) parent change =
  let better a b = match d.better with Higher -> a > b | Lower -> a < b in
  let rec wins n ps cs =
    match (ps, cs) with
    | p :: ps, c :: cs -> wins (if better c p then n + 1 else n) ps cs
    | _ -> n
  in
  let pairs = min (List.length parent) (List.length change) in
  let share = float_of_int (wins 0 parent change) /. float_of_int (max 1 pairs) in
  let mp = Hist.median parent and mc = Hist.median change in
  let q1p, q3p = Hist.quartiles parent and q1c, q3c = Hist.quartiles change in
  let worse = (match d.better with Higher -> mp -. mc | Lower -> mc -. mp) /. Float.abs mp in
  let spread = Float.max ((q3p -. q1p) /. Float.abs mp) ((q3c -. q1c) /. Float.abs mc) in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let v =
    if d.bound = 0. then "-"
    else if pairs >= 10 && share >= 0.9 && better mc mp && Float.abs (mc -. mp) > q3p -. q1p then
      "improved"
    else if spread > d.bound && not all_better then "unresolved"
    else if worse <= d.bound then "no worse"
    else "regressed"
  in
  (share, v)

let compare_files parents changes =
  let load_side files = List.concat_map runs_of files in
  let ps = load_side parents and cs = load_side changes in
  let workload r = match member "workload" r with Some (Str s) -> s | _ -> "?" in
  let workloads = List.sort_uniq compare (List.map workload ps) in
  Printf.printf "%-8s %-30s %32s %32s %5s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      let side l = List.filter (fun r -> workload r = w) l in
      let p = side ps and c = side cs in
      List.iter
        (fun (d : Metrics.decl) ->
          let vals runs = List.filter_map (fun r -> metric_value r d.name) runs in
          match (vals p, vals c) with
          | [], _ | _, [] -> ()
          | pv, cv ->
              let share, v = verdict d pv cv in
              if v = "regressed" then regressed := true;
              let q l =
                let a, b = Hist.quartiles l in
                Printf.sprintf "%.4g [%.4g, %.4g]" (Hist.median l) a b
              in
              Printf.printf "%-8s %-30s %32s %32s %4.0f%%  %s\n" w d.name (q pv) (q cv) (100. *. share) v)
        (Metrics.end_to_end @ Metrics.per_layer))
    workloads;
  if !regressed then exit 1

(* --- command line ------------------------------------------------------ *)

let usage =
  "perf.exe [run|trace] [--workload W|all] [--seed N] [--seconds S] [--trace 0|1] [--domains 1|2] \
   [--smoke] [--spec BENCHMARK.json] [-o FILE]\n\
   perf.exe compare PARENT.json... -- CHANGE.json..."

let parse_workload = function
  | "all" -> Cell.workloads
  | w -> (
      match List.find_opt (fun x -> Cell.workload_name x = w) Cell.workloads with
      | Some x -> [ x ]
      | None -> raise (Arg.Bad ("unknown workload " ^ w)))

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  match argv with
  | "compare" :: rest -> (
      let rec split acc = function
        | "--" :: cs -> (List.rev acc, cs)
        | x :: xs -> split (x :: acc) xs
        | [] -> (List.rev acc, [])
      in
      match split [] rest with
      | (_ :: _ as parents), (_ :: _ as changes) -> compare_files parents changes
      | _ ->
          prerr_endline usage;
          exit 2)
  | _ ->
      let mode = ref Run and workloads = ref Cell.workloads and seed = ref 1 in
      let seconds = ref 25. and domains = ref 2 and smoke = ref false in
      let spec = ref None and out = ref None in
      let anon = function
        | "run" -> mode := Run
        | "trace" -> mode := Trace
        | a -> raise (Arg.Bad ("unexpected argument " ^ a))
      in
      let specs =
        [
          ("--workload", Arg.String (fun w -> workloads := parse_workload w), "W insert|drain|mixed|sssp|all");
          ("--seed", Arg.Set_int seed, "N input seed");
          ("--seconds", Arg.Set_float seconds, "S time budget of a workload's rounds");
          ( "--trace",
            Arg.Int (fun t -> mode := if t = 1 then Trace else Run),
            "0|1 per-layer traced run instead of the end-to-end run" );
          ("--domains", Arg.Set_int domains, "1|2 domains of the concurrent structures");
          ("--smoke", Arg.Set smoke, " sizes /64, one round; fails on any failed check");
          ("--spec", Arg.String (fun s -> spec := Some s), "FILE fail unless FILE declares exactly our metrics");
          ("-o", Arg.String (fun s -> out := Some s), "FILE write (or extend) a mound-perf/1 document");
        ]
      in
      (try Arg.parse_argv Sys.argv specs anon usage with
      | Arg.Bad m ->
          prerr_string m;
          exit 2
      | Arg.Help m ->
          print_string m;
          exit 0);
      if !domains < 1 || !domains > 2 then (prerr_endline "--domains must be 1 or 2"; exit 2);
      let cfg =
        {
          mode = !mode;
          workloads = !workloads;
          seed = !seed;
          seconds = !seconds;
          domains = !domains;
          smoke = !smoke;
          sizes = (if !smoke then smoke_sizes else full);
          spec = !spec;
          out = !out;
        }
      in
      Runtime.Real.set_seed (Int64.of_int cfg.seed);
      ignore (Pool.pin_minor_heap ());
      let pool = Pool.create () in
      let gc = match cfg.mode with Trace -> Some (Layers.gc_events ()) | Run -> None in
      let hdr = header cfg pool in
      if pool.worker_minor_words <> Pool.minor_words then
        prerr_endline "warning: the worker domain's minor heap is not pinned";
      let outcomes = List.map (run_workload cfg ~pool ~gc) cfg.workloads in
      Pool.shutdown pool;
      let failed = List.fold_left (fun a (_, f, _) -> a + f) 0 outcomes in
      Option.iter
        (fun path ->
          let previous = if Sys.file_exists path then runs_of path else [] in
          let runs = previous @ List.map (fun (r, _, _) -> r) outcomes in
          write_file path
            (to_string (Obj [ ("schema", Str "mound-perf/1"); ("header", hdr); ("runs", Arr runs) ])))
        cfg.out;
      let problems =
        (if cfg.smoke && failed > 0 then [ Printf.sprintf "%d operations in failed trials" failed ] else [])
        @
        match cfg.spec with
        | None -> []
        | Some path ->
            let declared = match cfg.mode with Run -> Metrics.end_to_end | Trace -> Metrics.per_layer in
            let names = List.sort compare (List.map (fun (d : Metrics.decl) -> d.name) declared) in
            Metrics.drift (load path)
            @ List.filter_map
                (fun (_, _, emitted) ->
                  if List.sort compare emitted = names then None
                  else Some "emitted metric names differ from the declared ones")
                outcomes
      in
      List.iter (fun p -> prerr_endline ("error: " ^ p)) problems;
      if problems <> [] then exit 1
