(** Liveness checking of simulated concurrent programs.

    Complements {!Check} (safety: linearizability, races, assertion
    deadlock) with progress properties: {!certify} drives a {!program}
    under a family of demonic schedulers — fair round-robin and staggered
    sweeps, plus unfair thread-suspension adversaries — and watches for
    {e non-progress cycles}: a return to a previously seen global state
    (shared memory + per-thread control + PRNG states) with no operation
    completed in between. A confirmed cycle under a fair scheduler is a
    livelock (memory keeps changing) or a deadlock (pure spinning); under
    a suspension adversary it refutes lock-freedom — the survivors
    starve instead of helping the suspended victim. Cycles carry a
    replayable prefix+pump in {!Sim.Sched.Schedule} syntax, verifiable
    with {!run_cycle} or [repro progress --program … --prefix … --pump …]. *)

type config = {
  max_steps : int;  (** per-run decision bound; exceeded → inconclusive *)
  quanta : int list;  (** round-robin quantum sweep (fair adversaries) *)
  stagger : int;
      (** staggered-start sweep width: every ordered thread pair [(a,b)]
          is run [a]×i then [b]×j solo for i,j ≤ [stagger] before fair
          round-robin resumes — the alignment search that exposes
          lock-ordering deadlocks *)
  suspend_points : int;
      (** suspension cut points sampled per victim across its baseline
          access range (unfair adversaries; refute lock-freedom) *)
}
(** Every run uses the uniform profile from seed 42; a candidate cycle
    must survive 3 pump repetitions, with the state fingerprint
    repeating at every period boundary, and pumps are at most 512
    decisions long. *)

val default_config : config
val quick_config : config
(** A time-boxed subset of {!default_config} for the smoke tier. *)

(** A fresh run of the program under test. [ops_done] must report, at any
    moment during the run, the number of {e completed} high-level
    operations per thread — the progress measure; a state revisited with
    these counts unchanged is a non-progress cycle candidate. Bodies must
    perform a fixed, finite number of operations. *)
type instance = {
  bodies : (int -> unit) array;
  ops_done : unit -> int array;
}

type program = { name : string; prepare : unit -> instance }

type strategy =
  | Round_robin of { quantum : int }  (** fair: q decisions per thread *)
  | Staggered of { head : int list }
      (** fair: run the listed tids first, then round-robin quantum 1 *)
  | Suspend of { victim : int; cut : int }
      (** unfair: round-robin, but the victim is never scheduled again
          after its [cut]-th decision — the lock-freedom adversary *)

type cycle = {
  strategy : strategy;
  seed : int64;
  prefix : Sim.Sched.Schedule.t;  (** decisions before the cycle *)
  pump : Sim.Sched.Schedule.t;  (** one period of the repeating cycle *)
  pump_writes : bool;
      (** memory changes inside the pump (and reverts by the period
          boundary): livelock; no writes at all: pure spinning —
          deadlock under a fair strategy, starvation under [Suspend] *)
}

type report = {
  program : string;
  runs : int;
  completed : int;  (** runs where every thread finished *)
  survivor_runs : int;
      (** [Suspend] runs where every non-victim completed — the helping
          discipline working as designed *)
  inconclusive : int;  (** runs cut by [max_steps] with no verdict *)
  near_misses : int;  (** fingerprint revisits that failed confirmation *)
  fair_cycle : cycle option;  (** livelock/deadlock under a fair strategy *)
  starvation_cycle : cycle option;  (** non-progress under [Suspend] *)
  max_op_steps : int;
      (** worst observed scheduling decisions between one thread's
          consecutive operation completions — the measured starvation
          bound, across all adversaries *)
  lock_free : bool;
      (** no cycle under any adversary and nothing inconclusive *)
  deadlock_free : bool;  (** no cycle and no timeout under fair ones *)
}

val pp_strategy : Format.formatter -> strategy -> unit
val pp_cycle : Format.formatter -> cycle -> unit
val pp_report : Format.formatter -> report -> unit

val certify : ?config:config -> program -> report
(** Sweep all adversaries (stopping each family at its first confirmed
    cycle) and aggregate the verdicts. *)

val run_cycle :
  ?seed:int64 -> program ->
  prefix:Sim.Sched.Schedule.t -> pump:Sim.Sched.Schedule.t -> bool
(** Replay a reported cycle: follow [prefix], then repeat [pump] as
    many times as {!certify} demands, checking that the state
    fingerprint repeats at every period boundary. [true] iff the cycle
    reproduces. *)

val check_cycle : program -> cycle -> bool
(** {!run_cycle} with the cycle's own seed, prefix and pump. *)
