(** Crash-stop sweep experiments over the chaos runtime: crash a victim
    thread at every one of its shared accesses in turn and check the
    survivors' progress, linearizability and element conservation. Used
    by [repro chaos] and the chaos test tier. See the implementation
    header for the workload design. *)

(** The chaos-wrapped simulator runtime the sweeps run on; exposed so
    tests can build further experiments on the same fault stream. *)
module CR : sig
  include Runtime.S

  val configure : Chaos.plan -> unit

  val current_plan : unit -> Chaos.plan

  val counters : Chaos.counters

  val reset_counters : unit -> unit
end

type outcome =
  | Completed  (** every survivor finished its script *)
  | Leaked_lock
      (** survivors finished, but the victim left a node locked (or the
          invariant broken) — the structure is poisoned for later users *)
  | Wedged of int list  (** these survivors lost progress (watchdog) *)

type run_report = {
  crash_point : int;  (** victim's fatal shared-access index; 0 = none *)
  outcome : outcome;
  linearizable : bool option;
      (** surviving small-key history; [None] when survivors wedged *)
  conserved : bool option;
      (** post-run drain matches the books; [None] when not drainable *)
}

type sweep = {
  structure : string;
  plan : Chaos.plan;
  victim_accesses : int;  (** crash coordinate space (fault-free run) *)
  runs : run_report list;
  faults : Chaos.counters;  (** summed over all runs of the sweep *)
  ops : Mound.Stats.Ops.t;  (** summed over all runs of the sweep *)
  stats : Mound.Stats.t;  (** fullness snapshot after the last run *)
}

val sweep_lf : ?plan:Chaos.plan -> ?stride:int -> seed:int64 -> unit -> sweep
(** Crash-stop sweep on the lock-free mound: crash points
    [1, 1+stride, ...] up to the victim's access count. *)

val sweep_lock :
  ?plan:Chaos.plan -> ?stride:int -> seed:int64 -> unit -> sweep
(** Same sweep on the locking mound. Runs that wedge or leak a lock are
    reported as such (never drained, never hung). *)

val completed : sweep -> int

val leaked : sweep -> int

val wedged : sweep -> int

val all_linearizable : sweep -> bool
(** No run's surviving history failed the linearizability check. *)

val all_conserved : sweep -> bool
(** No drained run's element books failed to balance. *)

val fingerprint : sweep -> string
(** Deterministic digest of every outcome, verdict and counter: equal
    plans and seeds must yield byte-for-byte equal fingerprints. *)

val print_sweep : Format.formatter -> sweep -> unit
