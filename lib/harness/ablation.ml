(** Ablation experiments for the design choices DESIGN.md calls out.

    - {!threshold_sweep}: the paper sets THRESHOLD = 8 and reports that
      "changing this value did not affect performance" (§VI-A); the sweep
      quantifies that on the simulator.
    - {!kcss_vs_dcss}: §III-D rejects whole-path k-CSS insertion in favour
      of the parent/child DCSS; this measures the gap.
    - {!approx_quality}: §V argues probabilistic extract-min returns
      near-minimal elements; this measures the rank error distribution.
    - {!sync_costs}: §IV argues costs in units of CAS (a software DCAS ≈
      5 CAS; a locking moundify needs 2J+1 CAS to the lock-free 5J); the
      simulator's access counters measure the real numbers per
      operation. *)

module Lf_sim = Mound.Lf.Make (Sim.Runtime) (Mound.Int_ord)
module Lock_sim = Mound.Lock.Make (Sim.Runtime) (Mound.Int_ord)

(* ---------------- THRESHOLD sweep ---------------- *)

type threshold_point = {
  threshold : int;
  insert_throughput : float;  (** kops/s, simulated *)
  final_depth : int;
}

let threshold_sweep ?(profile = Sim.Profile.x86) ?(threads = 6)
    ?(ops_per_thread = 1 lsl 10) ?(seed = 5L)
    ?(thresholds = [ 1; 2; 4; 8; 16; 32 ]) () =
  List.map
    (fun threshold ->
      let q = Lf_sim.create ~threshold () in
      let body _tid =
        for _ = 1 to ops_per_thread do
          Lf_sim.insert q (Sim.Sched.rand_int Workload.key_range)
        done
      in
      let r = Sim.Sched.run ~profile ~seed (Array.make threads body) in
      let seconds = Sim.Profile.seconds profile r.span in
      {
        threshold;
        insert_throughput =
          float_of_int (threads * ops_per_thread) /. seconds /. 1000.;
        final_depth = Lf_sim.depth q;
      })
    thresholds

let print_threshold ppf points =
  Format.fprintf ppf
    "Ablation: THRESHOLD leaf probes (lock-free mound, insert)@.";
  Format.fprintf ppf "%-10s %-22s %s@." "THRESHOLD" "insert kops/s (sim)"
    "final depth";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10d %-22.0f %d@." p.threshold p.insert_throughput
        p.final_depth)
    points

(* ---------------- k-CSS vs DCSS insert ---------------- *)

type insert_variant_point = { variant : string; throughput : float; cas : int }

let kcss_vs_dcss ?(profile = Sim.Profile.x86) ?(threads = 6)
    ?(ops_per_thread = 1 lsl 10) ?(seed = 5L) () =
  List.map
    (fun (variant, insert) ->
      let q = Lf_sim.create () in
      let body _tid =
        for _ = 1 to ops_per_thread do
          insert q (Sim.Sched.rand_int Workload.key_range)
        done
      in
      let r = Sim.Sched.run ~profile ~seed (Array.make threads body) in
      let seconds = Sim.Profile.seconds profile r.span in
      {
        variant;
        throughput =
          float_of_int (threads * ops_per_thread) /. seconds /. 1000.;
        cas = r.cases;
      })
    [
      ("insert (DCSS, paper)", Lf_sim.insert);
      ("insert_kcss (whole path)", Lf_sim.insert_kcss);
    ]

let print_kcss ppf points =
  Format.fprintf ppf
    "Ablation: validate whole search path (k-CSS) vs parent/child (DCSS)@.";
  Format.fprintf ppf "%-28s %-18s %s@." "insert variant" "kops/s (sim)"
    "total CAS issued";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-28s %-18.0f %d@." p.variant p.throughput p.cas)
    points

(* ---------------- probabilistic extract-min quality ---------------- *)

type approx_stats = {
  max_level : int;
  samples : int;
  exact_fraction : float;  (** extracted the true minimum *)
  mean_rank : float;  (** 0 = minimum *)
  p95_rank : int;
  max_rank : int;
}

(** Runs on the sequential mound: after each [extract_approx], the rank of
    the returned element (how many smaller elements remained) is taken
    from {!Rank_exp.Oracle}, the rank-error replay's own multiset. *)
let approx_quality ?(n = 1 lsl 14) ?(samples = 1 lsl 12) ?(seed = 9L)
    ?(max_levels = [ 0; 1; 2; 3 ]) () =
  List.map
    (fun max_level ->
      let module S = Mound.Seq_int in
      let q = S.create ~seed () in
      let rng = Prng.create (Int64.add seed 1L) in
      let keys = Array.init n (fun _ -> Prng.int rng Workload.key_range) in
      Array.iter (S.insert q) keys;
      let oracle = Rank_exp.Oracle.create keys in
      let ranks = ref [] in
      for _ = 1 to samples do
        match S.extract_approx ~max_level q with
        | None -> ()
        | Some v -> (
            match Rank_exp.Oracle.take oracle v with
            | Some r -> ranks := r :: !ranks
            | None -> assert false)
      done;
      let ranks = List.sort compare !ranks in
      let m = List.length ranks in
      let nth k = List.nth ranks (min (m - 1) k) in
      {
        max_level;
        samples = m;
        exact_fraction =
          float_of_int (List.length (List.filter (( = ) 0) ranks))
          /. float_of_int (max 1 m);
        mean_rank =
          List.fold_left (fun a r -> a +. float_of_int r) 0. ranks
          /. float_of_int (max 1 m);
        p95_rank = nth (95 * m / 100);
        max_rank = nth (m - 1);
      })
    max_levels

let print_approx ppf stats =
  Format.fprintf ppf
    "Extension: probabilistic extract-min quality (rank 0 = true minimum)@.";
  Format.fprintf ppf "%-10s %-9s %-11s %-11s %-9s %s@." "max_level" "samples"
    "exact frac" "mean rank" "p95 rank" "max rank";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-10d %-9d %-11.3f %-11.1f %-9d %d@." s.max_level
        s.samples s.exact_fraction s.mean_rank s.p95_rank s.max_rank)
    stats

(* ---------------- synchronization cost accounting ---------------- *)

type cost_row = {
  structure : string;
  operation : string;
  reads_per_op : float;
  writes_per_op : float;
  cas_per_op : float;
}

(* Measure one structure's per-op shared-memory profile: populate with
   [n] keys outside the simulation (free), then run a single simulated
   thread doing [ops] operations and read the scheduler's access
   counters. *)
let measure_costs ~n ~ops (maker : Pq.maker) =
  let q = maker.make ~capacity:(4 * n) in
  Sim.Sched.seed_ambient 41L;
  let rng = Prng.create 43L in
  for _ = 1 to n do
    q.insert (Prng.int rng Workload.key_range)
  done;
  let run op_name f =
    let r = Sim.Sched.run ~seed:44L [| (fun _ -> for _ = 1 to ops do f () done) |] in
    {
      structure = maker.name;
      operation = op_name;
      reads_per_op = float_of_int r.reads /. float_of_int ops;
      writes_per_op = float_of_int r.writes /. float_of_int ops;
      cas_per_op = float_of_int r.cases /. float_of_int ops;
    }
  in
  let insert_row =
    run "insert" (fun () -> q.insert (Prng.int rng Workload.key_range))
  in
  let extract_row = run "extractmin" (fun () -> ignore (q.extract_min ())) in
  [ insert_row; extract_row ]

let sync_costs ?(n = 1 lsl 12) ?(ops = 512) () =
  List.concat_map (measure_costs ~n ~ops) Pq.On_sim.extended_set

let print_costs ppf rows =
  Format.fprintf ppf
    "Synchronization operations per op (simulator, 1 thread, %s)@."
    "structure prepopulated with 2^12 random keys";
  Format.fprintf ppf "%-18s %-12s %10s %10s %10s@." "structure" "op" "reads"
    "writes" "CAS";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s %-12s %10.1f %10.1f %10.1f@." r.structure
        r.operation r.reads_per_op r.writes_per_op r.cas_per_op)
    rows

(** CAS cost of the DCAS/DCSS primitives themselves, the paper's "5 CAS
    per software DCAS" (§IV). *)
let primitive_costs () =
  let open Sim_mcas in
  let count f =
    let r = Sim.Sched.run ~seed:45L [| (fun _ -> f ()) |] in
    (r.reads, r.cases)
  in
  let a = Cell.make (Int 1) and b = Cell.make (Int 2) in
  (* [drop] deliberately sinks each primitive's result: this measures
     the cost of the attempt, not its outcome (the cells are
     uncontended, so every attempt succeeds anyway). *)
  let drop (_ : bool) = () in
  let cas_counts = count (fun () -> drop (Cell.cas a (Cell.get a) (Int 3))) in
  let dcas_counts =
    count (fun () ->
        drop (Cell.dcas a (Cell.get a) (Int 4) b (Cell.get b) (Int 5)))
  in
  let dcss_counts =
    count (fun () -> drop (Cell.dcss a (Cell.get a) b (Cell.get b) (Int 6)))
  in
  [ ("cas", cas_counts); ("dcas", dcas_counts); ("dcss", dcss_counts) ]

let print_primitives ppf rows =
  Format.fprintf ppf "Mcas primitive footprint (uncontended, simulator)@.";
  Format.fprintf ppf "%-8s %8s %8s@." "op" "reads" "CAS";
  List.iter
    (fun (name, (reads, cas)) ->
      Format.fprintf ppf "%-8s %8d %8d@." name reads cas)
    rows
