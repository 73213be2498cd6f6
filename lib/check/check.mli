(** Stateless model checking of simulated concurrent programs.

    {!explore} re-executes a {!program} under every schedule the dynamic
    partial-order reduction deems inequivalent — Flanagan–Godefroid
    backtracking with sleep sets over {!Sim.Sched}'s policy hook, keyed
    on the per-cell conflicts {!Sim.Mem} commits — and checks each
    complete execution with the program's own verdict, each trace with a
    vector-clock data-race detector, and each scheduling decision for
    spin-deadlock. Failures carry a replayable schedule
    ({!Sim.Sched.Schedule} syntax); {!run_schedule} replays one. *)

type config = {
  max_schedules : int;  (** execution budget; exceeded → [complete=false] *)
  max_steps : int;  (** per-execution decision bound *)
  race_oracle : bool;
      (** run the vector-clock race scan at all (default [true]). Turn
          it off for a program whose defect under test {e is} an
          unordered write pair — e.g. a seeded lost-update mutant —
          so the semantic oracles (invariant, linearizability) report
          the damage instead of the race pre-empting them on every
          trace. Unordered plain write/write pairs are flagged while it
          runs; plain read/write pairs never are (the TTAS get-spin
          idiom is that shape) *)
}

val default_config : config
(** 50k schedules, 5k steps, race oracle on. Every execution runs the
    uniform profile from seed 42, parks a thread after 3 same-cell
    stutter reads (16 reads with an unchanged footprint), and declares
    deadlock once a parked thread with no runnable peer reaches 64. *)

(** A fresh run of the program under test. [verdict] is evaluated after
    the execution completes, outside the simulation; [None] = pass. *)
type instance = {
  bodies : (int -> unit) array;
  verdict : unit -> string option;
}

type program = { name : string; prepare : unit -> instance }

(** A committed shared access ([wrote=false]: read or failed CAS). *)
type event = {
  step : int;
  tid : int;
  cell : int;
  kind : Sim.Sched.access;
  wrote : bool;
  stutter : bool;
      (** read or failed CAS observing a value unchanged since this
          thread last observed the cell (a spin/retry iteration);
          assumed side-effect-free and not treated as a backtrack
          target when the streak around it is pure *)
}

type race = { cell : int; first : event; second : event }

type failure =
  | Invariant of string
  | Race of race
  | Deadlock of int list  (** every runnable thread parked spinning *)
  | Diverged

type counterexample = { schedule : Sim.Sched.Schedule.t; failure : failure }

type report = {
  program : string;
  schedules : int;  (** executions launched, incl. pruned/aborted *)
  complete_runs : int;
  sleep_prunes : int;  (** redundant subtrees skipped via sleep sets *)
  backtracks : int;  (** backtrack points planted by the HB analysis *)
  steps : int;
  max_trace : int;
  diverged : int;
  complete : bool;  (** whole reduced space explored within budget *)
  counterexample : counterexample option;
}

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit

val explore : ?config:config -> program -> report
(** Explore until a failure, exhaustion of the reduced schedule space
    ([complete = true]), or the budget runs out. *)

type replay_outcome = {
  followed : int;  (** scheduling decisions taken *)
  wedged : int list;  (** threads stopped by the replay watchdog *)
  replay_failure : failure option;
  trace : event list;  (** every committed access, in execution order *)
}

val run_schedule :
  ?config:config -> ?watchdog:int -> program -> Sim.Sched.Schedule.t ->
  replay_outcome
(** Re-execute one schedule (a counterexample, say) with the same race
    scan and verdict as the explorer. Past the schedule's end the run
    continues under the default lowest-tid rule without spin parking;
    two watchdogs turn runaway spinning into a [wedged] report of every
    thread still running — a deadlock counterexample replays as a
    wedge: the virtual clock (default 10M cycles) and
    [config.max_steps] decisions past the schedule's end (default
    5,000), which also ends a low thread spinning on a lock a higher
    one holds. The trace holds one event per decision at most. *)
