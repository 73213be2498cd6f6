(** Ablation experiments for the design choices DESIGN.md calls out:
    THRESHOLD sensitivity (§VI-A), whole-path k-CSS vs parent/child DCSS
    insertion (§III-D), probabilistic extract-min quality (§V), and
    per-operation synchronization-cost accounting (§IV). *)

(** {1 THRESHOLD sweep} *)

type threshold_point = {
  threshold : int;
  insert_throughput : float;  (** kops/s, simulated *)
  final_depth : int;
}

val threshold_sweep :
  ?profile:Sim.Profile.t ->
  ?threads:int ->
  ?ops_per_thread:int ->
  ?seed:int64 ->
  ?thresholds:int list ->
  unit ->
  threshold_point list

val print_threshold : Format.formatter -> threshold_point list -> unit

(** {1 k-CSS vs DCSS insertion} *)

type insert_variant_point = { variant : string; throughput : float; cas : int }

val kcss_vs_dcss :
  ?profile:Sim.Profile.t ->
  ?threads:int ->
  ?ops_per_thread:int ->
  ?seed:int64 ->
  unit ->
  insert_variant_point list

val print_kcss : Format.formatter -> insert_variant_point list -> unit

(** {1 Probabilistic extract-min quality} *)

type approx_stats = {
  max_level : int;
  samples : int;
  exact_fraction : float;  (** extracted the true minimum *)
  mean_rank : float;  (** 0 = minimum *)
  p95_rank : int;
  max_rank : int;
}

val approx_quality :
  ?n:int ->
  ?samples:int ->
  ?seed:int64 ->
  ?max_levels:int list ->
  unit ->
  approx_stats list
(** Rank-error distribution of [extract_approx] against the
    {!Rank_exp.Oracle} multiset, per probing depth. *)

val print_approx : Format.formatter -> approx_stats list -> unit

(** {1 Synchronization cost accounting} *)

type cost_row = {
  structure : string;
  operation : string;
  reads_per_op : float;
  writes_per_op : float;
  cas_per_op : float;
}

val sync_costs : ?n:int -> ?ops:int -> unit -> cost_row list
(** Per-operation shared-memory footprint of every structure, measured
    with the simulator's access counters on a single thread. *)

val print_costs : Format.formatter -> cost_row list -> unit

val primitive_costs : unit -> (string * (int * int)) list
(** [(name, (reads, cas))] for the cas/dcas/dcss primitives — the paper's
    "a software DCAS costs ~5 CAS" (§IV). *)

val print_primitives :
  Format.formatter -> (string * (int * int)) list -> unit
