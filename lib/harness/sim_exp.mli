(** Fig. 2 experiment driver on the virtual-time simulator.

    Structures are created and pre-populated outside the simulation
    (setup is free, as on a real testbed); the measured threads then run
    as simulated fibers, and throughput is elements processed divided by
    the virtual makespan converted through the machine profile's clock —
    the paper's "1000 Ops/sec vs threads" axes. *)

type point = {
  threads : int;
  throughput : float;  (** operations per second *)
  span_cycles : int;  (** virtual makespan *)
  ops : int;  (** elements processed across all threads *)
}

type series = { structure : string; points : point list }

val populate : Pq.t -> int -> seed:int64 -> unit
(** Deterministically pre-populate with random keys (ambient phase, not
    costed). *)

val run_cell :
  ?profile:Sim.Profile.t ->
  ?seed:int64 ->
  panel:Workload.panel ->
  threads:int ->
  ops_per_thread:int ->
  init_size:int ->
  Pq.maker ->
  point
(** One (structure, panel, thread-count) measurement. *)

val run_series :
  ?profile:Sim.Profile.t ->
  ?seed:int64 ->
  panel:Workload.panel ->
  thread_counts:int list ->
  ops_per_thread:int ->
  init_size:int ->
  Pq.maker ->
  series
(** Thread-count sweep for one structure. *)
