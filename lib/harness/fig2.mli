(** Driver and printer for the paper's Fig. 2 (throughput vs threads,
    eight panels = 4 workloads × 2 machines). Machines are simulator
    profiles ({!Sim.Profile.niagara2} / {!Sim.Profile.x86}). *)

(** Problem sizes and thread sweeps. *)
type scale = {
  ops_per_thread : int;  (** paper: 2^16 *)
  mixed_init : int;  (** paper: 2^16 *)
  many_init : int;  (** paper: 2^20 *)
  threads_niagara : int list;
  threads_x86 : int list;
}

val paper_scale : scale
(** The paper's parameters (long: use [bin/repro.exe fig2]). *)

val quick_scale : scale
(** Reduced sizes keeping the inflection points (core and hardware-thread
    counts); used by [repro fig2 --quick] and tests. *)

val threads_for : scale -> Sim.Profile.t -> int list

val run :
  ?scale:scale ->
  ?makers:Pq.maker list ->
  profile:Sim.Profile.t ->
  panel:Workload.panel ->
  unit ->
  Sim_exp.series list
(** Run one panel on one machine profile (default structures: the
    paper's four). *)

val print_panel :
  Format.formatter ->
  profile:Sim.Profile.t ->
  panel:Workload.panel ->
  Sim_exp.series list ->
  unit
(** Print a panel as a threads × structures table in kOps/s. *)
