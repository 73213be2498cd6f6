(** Stateless model checking of simulated programs.

    Replaces {!Sim.Sched}'s smallest-virtual-clock policy with a
    backtracking schedule explorer: dynamic partial-order reduction
    (Flanagan–Godefroid DPOR) with sleep sets, keyed on the per-cell
    access conflicts {!Sim.Mem} reports through [on_commit]. Exploration
    is restart-based: the program is re-executed from scratch for every
    schedule, with a forced prefix replayed and the suffix extended by a
    deterministic first-choice rule — exactly like dscheck, but over the
    simulator's fibers instead of real domains.

    A vector-clock happens-before engine runs over every trace twice:

    - the {e dependence} pass (full per-location SC order) feeds the DPOR
      backtrack analysis, pruning interleavings equivalent to one already
      explored;
    - the {e synchronization} pass treats only CAS-class operations and
      reads-from edges as synchronizing — plain [set] publishes but does
      not absorb — and reports unordered plain writes to one cell as
      data races.

    Spinning threads are handled Nidhugg-style: a thread about to re-read
    a cell it has already read [spin_threshold] times with no intervening
    write is parked until someone writes that cell. This keeps TTAS-style
    spinlocks finitely explorable, and turns "every runnable thread is
    parked" into a deadlock verdict.

    Every failure carries the full schedule that produced it, in
    {!Sim.Sched.Schedule} syntax, replayable with {!run_schedule} or
    [repro dpor --schedule]. *)

type config = {
  max_schedules : int;  (** execution budget; the explorer stops (with
                            [complete = false]) once this many executions
                            have been launched. *)
  max_steps : int;  (** per-execution bound on scheduling decisions;
                        executions cut by it count as [diverged]. *)
  race_oracle : bool;
      (** run the vector-clock race scan at all. On by default; turn it
          off for a program whose defect under test {e is} an unordered
          write pair (the lost-update mutants), so the semantic oracles
          — invariant and linearizability — get to pronounce on the
          damage instead of the race masking them on every trace. *)
}

let default_config =
  { max_schedules = 50_000; max_steps = 5_000; race_oracle = true }

(* Consecutive same-cell stutter reads before a thread is parked as
   spinning. *)
let spin_threshold = 3

(* Consecutive reads (across {e any} cells) without a write by the
   thread itself, while nothing it has read meanwhile changed, before
   the thread is parked as stalled. Catches multi-cell wait loops the
   single-cell heuristic misses — an STM abort-retry cycle re-reading
   clock/lock/version until a holder unlocks. Larger than
   [spin_threshold] because long read-only phases (candidate probing)
   are normal. *)
let stall_threshold = 16

(* Stutter reads before a thread parked with no runnable peers is
   declared deadlocked. Between the parking thresholds and [spin_cap]
   such a thread is let through with escalated thresholds: randomized
   probing (a mound insert re-probing one leaf) can stutter a few reads
   and then progress, where a genuine spin loop stutters to the cap. *)
let spin_cap = 64

(* Every execution runs under the uniform cost profile from one seed. *)
let profile = Sim.Profile.uniform
let seed = 42L

(** One concrete, freshly-built run of the program under test: thread
    bodies for {!Sim.Sched.run}, plus a verdict evaluated after the
    execution completes (outside the simulation — it may freely inspect
    or drain the structure). [None] means the execution was acceptable. *)
type instance = {
  bodies : (int -> unit) array;
  verdict : unit -> string option;
}

type program = { name : string; prepare : unit -> instance }

(** A committed shared-memory access, as reported by {!Sim.Sched.commit}:
    the conflict alphabet of the explorer. [wrote = false] for reads and
    failed CASes. *)
type event = {
  step : int;
  tid : int;
  cell : int;
  kind : Sim.Sched.access;
  wrote : bool;
  stutter : bool;
      (** a re-read observing a value unchanged since this thread last
          read the cell. Spin and retry loops emit these; they are
          assumed side-effect-free, so the backtrack analysis does not
          explore a conflicting write's position {e within} a stutter
          streak — only against the streak's first read. Without this
          the release-write of a lock-holder is planted at every
          iteration of a waiter's spin, and exploration diverges. *)
}

type race = { cell : int; first : event; second : event }

type failure =
  | Invariant of string  (** the program's own verdict rejected the run *)
  | Race of race
  | Deadlock of int list  (** every runnable thread parked spinning *)
  | Diverged  (** execution exceeded [max_steps] decisions *)

type counterexample = { schedule : Sim.Sched.Schedule.t; failure : failure }

type report = {
  program : string;
  schedules : int;  (** executions launched (incl. pruned/aborted) *)
  complete_runs : int;  (** executions that ran to completion *)
  sleep_prunes : int;  (** subtrees skipped as sleep-set-redundant *)
  backtracks : int;  (** backtrack points planted by the HB analysis *)
  steps : int;  (** scheduling decisions across all executions *)
  max_trace : int;  (** longest execution, in decisions *)
  diverged : int;  (** executions cut by [max_steps] *)
  complete : bool;  (** the whole reduced space fit in the budget *)
  counterexample : counterexample option;
}

let pp_failure ppf = function
  | Invariant msg -> Format.fprintf ppf "invariant violation: %s" msg
  | Race { cell; first; second } ->
      Format.fprintf ppf
        "data race on cell %d: t%d %s at step %d unordered with t%d %s at \
         step %d"
        cell first.tid
        (match first.kind with Read -> "read" | Write -> "write" | Cas -> "cas")
        first.step second.tid
        (match second.kind with
        | Read -> "read"
        | Write -> "write"
        | Cas -> "cas")
        second.step
  | Deadlock tids ->
      Format.fprintf ppf "deadlock: threads [%s] all parked spinning"
        (String.concat "; " (List.map string_of_int tids))
  | Diverged -> Format.fprintf ppf "divergence: step bound exceeded"

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %d schedules (%d complete, %d sleep-pruned, %d diverged), %d \
     backtrack points, %d steps (max trace %d), %s"
    r.program r.schedules r.complete_runs r.sleep_prunes r.diverged
    r.backtracks r.steps r.max_trace
    (if r.complete then "exhaustive" else "budget-bounded");
  match r.counterexample with
  | None -> Format.fprintf ppf ", no failure"
  | Some { schedule; failure } ->
      Format.fprintf ppf ", FAILED (%a) schedule %s" pp_failure failure
        (Sim.Sched.Schedule.to_string schedule)

(* ---- vector clocks ---------------------------------------------------- *)

module Vc = struct
  let make n = Array.make n 0
  let copy = Array.copy

  let join a b =
    for i = 0 to Array.length a - 1 do
      if b.(i) > a.(i) then a.(i) <- b.(i)
    done

  let leq a b =
    let ok = ref true in
    for i = 0 to Array.length a - 1 do
      if a.(i) > b.(i) then ok := false
    done;
    !ok
end

(* ---- explorer --------------------------------------------------------- *)

(* Thread sets are int bitmasks: the simulator caps runs at 64 threads
   and DPOR programs are far smaller. *)
let bit t = 1 lsl t

let mask_to_list m =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if m land bit i <> 0 then i :: acc else acc)
  in
  go 62 []

(* One node per scheduling decision on the current path. [backtrack] and
   [tried] persist across re-executions of the prefix; [enabled], [sleep]
   and [ev] are refreshed each time the prefix is replayed (determinism
   makes the refresh a no-op except after truncation). *)
type node = {
  mutable chosen : int;
  mutable ev : event option;  (** the slice's committed access, if any *)
  mutable enabled : int;  (** runnable and not spin-parked, pre-state *)
  mutable sleep : int;
  mutable backtrack : int;
  mutable tried : int;  (** includes [chosen] *)
}

type abort_reason =
  | Abort_sleep  (** every enabled thread asleep: redundant subtree *)
  | Abort_steps
  | Abort_deadlock of int list

exception Abort of abort_reason

(* Internal per-execution scheduling state: spin detection + the commit
   hook's cursor into the node stack. *)
type exec = {
  stack : node array ref;
  mutable len : int;  (** nodes filled this execution *)
  forced : int;  (** prefix length to replay before extending *)
  (* lint: allow — the explorer itself is sequential: [exec] is the
     model checker's per-execution bookkeeping, mutated by exactly one
     thread of control (only the simulated program is concurrent), so
     co-located mutable words cannot ping-pong between cores *)
  mutable depth : int;  (** decisions taken so far *)
  mutable sleep_cur : int;
  last_cell : int array;  (** per-thread cell of the current read streak *)
  streak : int array;  (** consecutive stutter reads of [last_cell] *)
  snap : int array;  (** write count of [last_cell] at streak start *)
  thr : int array;  (** per-thread parking threshold, escalated when a
                        parked thread is the only way forward *)
  fp : (int, int) Hashtbl.t array;
      (** per-thread read footprint since its last write: cell -> write
          count when last read. A thread whose footprint is entirely
          unchanged is re-deriving the same values. *)
  ro_streak : int array;  (** consecutive reads since the thread's own
                              last write, across all cells *)
  stall_thr : int array;  (** footprint parking threshold, escalated
                              like [thr] *)
  writes : (int, int) Hashtbl.t;  (** per-cell write counter *)
  cfg : config;
}

let node_at ex i = !(ex.stack).(i)

let push_node ex n =
  let st = !(ex.stack) in
  if ex.len = Array.length st then begin
    let st' = Array.make (max 16 (2 * ex.len)) n in
    Array.blit st 0 st' 0 ex.len;
    ex.stack := st'
  end;
  !(ex.stack).(ex.len) <- n;
  ex.len <- ex.len + 1

let write_count ex cell = try Hashtbl.find ex.writes cell with Not_found -> 0

(* Would thread [t]'s announced access commute with committed event [e]?
   Unknown pendings are treated as conflicting (wakes the sleeper: less
   pruning, never unsound). A pending CAS counts as a potential write. *)
let independent (pending : Sim.Sched.pending option) (e : event option) =
  match (pending, e) with
  | _, None -> true (* a slice with no shared access commutes with all *)
  | None, _ -> false
  | Some p, Some e ->
      p.cell <> e.cell
      || ((match p.kind with Read -> true | Write | Cas -> false)
         && not e.wrote)

(* Multi-cell stall: [t] has read [stall_thr] times in a row without
   writing anything itself, and no cell it read meanwhile has changed —
   it is re-deriving the same values (an STM abort-retry cycle walking
   clock/size/lock, say) and will keep doing so until someone writes. *)
let stalled ex t =
  ex.ro_streak.(t) >= ex.stall_thr.(t)
  && Hashtbl.fold
       (fun cell wc ok -> ok && write_count ex cell = wc)
       ex.fp.(t) true

(* Is runnable thread [t], with pending [p], parked as a spinner? *)
let parked ex t (p : Sim.Sched.pending option) =
  match p with
  | Some { kind = Read; cell } ->
      (ex.last_cell.(t) = cell
      && ex.streak.(t) >= ex.thr.(t)
      && write_count ex cell = ex.snap.(t))
      || stalled ex t
  | _ -> false

(* The scheduling policy for one exploration execution. Replays the
   forced prefix, then extends by the lowest enabled non-sleeping tid,
   maintaining sleep sets as it goes. *)
let make_policy ex : Sim.Sched.policy =
 fun runnable ->
  (* Age the sleep set past the previous decision's event: siblings
     already fully explored at the parent go to sleep; anything
     dependent on what just executed wakes up. *)
  if ex.depth > 0 then begin
    let prev = node_at ex (ex.depth - 1) in
    let base = ex.sleep_cur lor (prev.tried land lnot (bit prev.chosen)) in
    let kept = ref 0 in
    Array.iter
      (fun (t, p) ->
        if base land bit t <> 0 && independent p prev.ev then
          kept := !kept lor bit t)
      runnable;
    ex.sleep_cur <- !kept
  end;
  let enabled = ref 0 and all = ref 0 in
  Array.iter
    (fun (t, p) ->
      all := !all lor bit t;
      if not (parked ex t p) then enabled := !enabled lor bit t)
    runnable;
  if !enabled = 0 then begin
    (* Everyone runnable is parked spinning. Escalate the least-stuck
       thread rather than cry deadlock outright: a randomized prober
       will move on within a few more reads, a true spin loop will
       stutter to the cap. *)
    let best = ref (-1) in
    Array.iter
      (fun (t, _) ->
        if !best < 0 || ex.ro_streak.(t) < ex.ro_streak.(!best) then
          best := t)
      runnable;
    if ex.ro_streak.(!best) >= spin_cap then
      raise (Abort (Abort_deadlock (mask_to_list !all)));
    ex.thr.(!best) <- ex.streak.(!best) + spin_threshold;
    ex.stall_thr.(!best) <- ex.ro_streak.(!best) + stall_threshold;
    enabled := bit !best
  end;
  if ex.depth >= ex.cfg.max_steps then raise (Abort Abort_steps);
  let choice =
    if ex.depth < ex.forced then begin
      (* Replay: the stored choice must still be runnable — the prefix
         is deterministic, so anything else is a bug, not a race. A
         merely parked thread may be forced: parking is a search
         heuristic, not semantics, and a backtrack point deliberately
         runs a thread past where extension would park it. *)
      let n = node_at ex ex.depth in
      if !all land bit n.chosen = 0 then
        invalid_arg "Check: replayed prefix diverged";
      n.enabled <- !enabled lor bit n.chosen;
      n.sleep <- ex.sleep_cur;
      n.ev <- None;
      ex.len <- ex.depth + 1;
      n.chosen
    end
    else begin
      let free = !enabled land lnot ex.sleep_cur in
      if free = 0 then raise (Abort Abort_sleep);
      let c = ref 0 in
      while free land bit !c = 0 do
        incr c
      done;
      push_node ex
        {
          chosen = !c;
          ev = None;
          enabled = !enabled;
          sleep = ex.sleep_cur;
          backtrack = bit !c;
          tried = bit !c;
        };
      !c
    end
  in
  ex.depth <- ex.depth + 1;
  choice

(* The commit hook: attach the executed access to the slice that
   performed it and maintain the spin-streak bookkeeping. *)
let make_on_commit ex ~tid ~cell ~kind ~wrote =
  let n = node_at ex (ex.depth - 1) in
  (* Observing a cell for the first time, or changed since this thread
     last read it, is fresh information — progress. Only a re-read of
     unchanged values is a stutter, advancing the stall counter. A
     failed CAS is read-like: it observed the cell and failed the same
     way it would have last time, so it stutters too (a lock-acquire
     loop retrying CAS against a held lock). *)
  let readlike = not wrote && kind <> Sim.Sched.Write in
  let fresh_info =
    (not readlike)
    ||
    match Hashtbl.find_opt ex.fp.(tid) cell with
    | None -> true
    | Some old -> old <> write_count ex cell
  in
  n.ev <-
    Some
      { step = ex.depth - 1; tid; cell; kind; wrote;
        stutter = (readlike && not fresh_info) };
  if wrote then Hashtbl.replace ex.writes cell (write_count ex cell + 1);
  (match kind with
  | Read ->
      if ex.last_cell.(tid) = cell && write_count ex cell = ex.snap.(tid)
      then ex.streak.(tid) <- ex.streak.(tid) + 1
      else begin
        ex.last_cell.(tid) <- cell;
        ex.streak.(tid) <- 1;
        ex.snap.(tid) <- write_count ex cell;
        ex.thr.(tid) <- spin_threshold
      end
  | Write | Cas ->
      ex.last_cell.(tid) <- -1;
      ex.streak.(tid) <- 0;
      ex.thr.(tid) <- spin_threshold);
  if readlike then begin
    Hashtbl.replace ex.fp.(tid) cell (write_count ex cell);
    if fresh_info then begin
      ex.ro_streak.(tid) <- 1;
      ex.stall_thr.(tid) <- stall_threshold
    end
    else ex.ro_streak.(tid) <- ex.ro_streak.(tid) + 1
  end
  else begin
    Hashtbl.reset ex.fp.(tid);
    ex.ro_streak.(tid) <- 0;
    ex.stall_thr.(tid) <- stall_threshold
  end

(* ---- trace analyses --------------------------------------------------- *)

let trace_events ex =
  let evs = ref [] in
  for i = ex.len - 1 downto 0 do
    match (node_at ex i).ev with Some e -> evs := e :: !evs | None -> ()
  done;
  !evs

(* DPOR backtrack analysis over one trace, full-dependence vector clocks.
   For each event, find the last conflicting event by another thread not
   already happens-before the acting thread, and plant a backtrack point
   just before it. Earlier races surface transitively in later
   executions. Returns the number of new backtrack bits planted. *)
let analyze_backtracks ex nthreads =
  let vc = Array.init nthreads (fun _ -> Vc.make nthreads) in
  let step_clock = Hashtbl.create 64 in
  (* cell -> last-write (step, tid, write count before it) *)
  let last_w = Hashtbl.create 64 in
  (* cell -> per-thread last read step: [last_r] for planting skips the
     stutter re-reads of a spin streak (flipping a write into the middle
     of a streak is equivalent to flipping it before the streak's first
     read); [last_r_vc] keeps every read so the happens-before clocks
     stay exact. *)
  let last_r = Hashtbl.create 64 and last_r_vc = Hashtbl.create 64 in
  let wc = Hashtbl.create 64 in (* cell -> writes so far in this walk *)
  (* thread -> cell -> (write count, thread-local event index) at its
     last read of the cell *)
  let seen = Array.init nthreads (fun _ -> Hashtbl.create 16) in
  (* per-thread event count, and index of the last "break" — a write,
     CAS, or fresh read: anything after which the thread's local state
     is not just another spin iteration *)
  let idx = Array.make nthreads 0 in
  let last_break = Array.make nthreads (-1) in
  let count c = try Hashtbl.find wc c with Not_found -> 0 in
  let planted = ref 0 in
  let plant step p =
    let n = node_at ex step in
    let add =
      if n.enabled land bit p <> 0 then bit p else n.enabled
    in
    let fresh = add land lnot n.backtrack in
    if fresh <> 0 then begin
      n.backtrack <- n.backtrack lor fresh;
      incr planted
    end
  in
  let reads_of tbl cell =
    match Hashtbl.find_opt tbl cell with
    | Some r -> r
    | None ->
        let r = Array.make nthreads (-1) in
        Hashtbl.replace tbl cell r;
        r
  in
  List.iter
    (fun e ->
      let p = e.tid in
      (* last conflicting step by another thread *)
      let conflict = ref (-1) in
      let conflict_is_w = ref false in
      (match Hashtbl.find_opt last_w e.cell with
      | Some (j, q, _) when q <> p ->
          conflict := j;
          conflict_is_w := true
      | _ -> ());
      if e.wrote then
        (match Hashtbl.find_opt last_r e.cell with
        | Some reads ->
            Array.iteri
              (fun q j ->
                if q <> p && j > !conflict then begin
                  conflict := j;
                  conflict_is_w := false
                end)
              reads
        | None -> ());
      (* Moving a read back across its reads-from write is pointless
         when (a) the pre-write value is exactly what the thread last
         read there, and (b) the thread has done nothing but stutter
         since that previous read — then the moved read is one more
         iteration of the spin the write just ended. Without this skip,
         each release write gets a "read before it" flip planted, whose
         trace spins one iteration longer and plants the next —
         exploration never converges. Condition (b) is what keeps this
         sound: any intervening write or fresh read means the thread's
         continuation could genuinely differ, and the flip is kept. *)
      let moved_read_stutters () =
        (not e.wrote) && e.kind <> Write && !conflict_is_w
        &&
        match
          (Hashtbl.find_opt last_w e.cell, Hashtbl.find_opt seen.(p) e.cell)
        with
        | Some (_, _, before), Some (prev_count, prev_idx) ->
            prev_count = before && last_break.(p) <= prev_idx
        | _ -> false
      in
      (if !conflict >= 0 && not (moved_read_stutters ()) then
         let cj = Hashtbl.find step_clock !conflict in
         if not (Vc.leq cj vc.(p)) then plant !conflict p);
      (* advance the dependence clocks *)
      vc.(p).(p) <- vc.(p).(p) + 1;
      (match Hashtbl.find_opt last_w e.cell with
      | Some (j, _, _) -> Vc.join vc.(p) (Hashtbl.find step_clock j)
      | None -> ());
      if e.wrote then begin
        (match Hashtbl.find_opt last_r_vc e.cell with
        | Some reads ->
            Array.iter
              (fun j ->
                if j >= 0 then Vc.join vc.(p) (Hashtbl.find step_clock j))
              reads
        | None -> ());
        Hashtbl.replace last_w e.cell (e.step, p, count e.cell);
        Hashtbl.replace wc e.cell (count e.cell + 1)
      end
      else begin
        (* A stutter read is skipped as a plant target only when the
           thread has been purely stuttering since its previous read of
           this cell — same condition as [moved_read_stutters], mirrored:
           a write flipped into the middle of such a streak is the same
           as flipping it before the streak. *)
        let pure_stutter =
          e.stutter
          &&
          match Hashtbl.find_opt seen.(p) e.cell with
          | Some (_, prev_idx) -> last_break.(p) <= prev_idx
          | None -> false
        in
        if not pure_stutter then (reads_of last_r e.cell).(p) <- e.step;
        (reads_of last_r_vc e.cell).(p) <- e.step
      end;
      if (not e.wrote) && e.kind <> Write then
        Hashtbl.replace seen.(p) e.cell (count e.cell, idx.(p));
      if not e.stutter then last_break.(p) <- idx.(p);
      idx.(p) <- idx.(p) + 1;
      Hashtbl.replace step_clock e.step (Vc.copy vc.(p)))
    (trace_events ex);
  !planted

(* Race detection over one trace, synchronization-only vector clocks:
   CAS-class operations acquire and (when they write) release; a read
   acquires through its reads-from edge; a plain [set] releases but does
   not absorb. A plain write unordered with the previous plain write is a
   write-write race. Read-write pairs are not reported: get-spin against
   a releasing [set] — the TTAS idiom — is exactly that shape and benign
   under the simulator's SC memory. *)
let find_race events nthreads =
  let s = Array.init nthreads (fun _ -> Vc.make nthreads) in
  let published = Hashtbl.create 64 in (* cell -> release clock *)
  let last_plain_w = Hashtbl.create 64 in (* cell -> event * clock *)
  let found = ref None in
  (try
     List.iter
       (fun e ->
         let p = e.tid in
         s.(p).(p) <- s.(p).(p) + 1;
         let absorb () =
           match Hashtbl.find_opt published e.cell with
           | Some c -> Vc.join s.(p) c
           | None -> ()
         in
         let release () =
           let c =
             match Hashtbl.find_opt published e.cell with
             | Some c -> c
             | None ->
                 let c = Vc.make nthreads in
                 Hashtbl.replace published e.cell c;
                 c
           in
           Vc.join c s.(p)
         in
         match e.kind with
         | Read -> absorb ()
         | Cas ->
             absorb ();
             if e.wrote then release ()
         | Write ->
             (match Hashtbl.find_opt last_plain_w e.cell with
             | Some (w, c) when w.tid <> p && not (Vc.leq c s.(p)) ->
                 found := Some { cell = e.cell; first = w; second = e };
                 raise Exit
             | _ -> ());
             release ();
             Hashtbl.replace last_plain_w e.cell (e, Vc.copy s.(p)))
       events
   with Exit -> ());
  !found

(* ---- driver ----------------------------------------------------------- *)

let schedule_of ex len =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (node_at ex i :: acc)
  in
  List.map (fun n -> n.chosen) (go (len - 1) [])

(* Pick the next (deepest) unexplored backtrack candidate; marks
   sleep-set candidates tried without executing them. Returns the new
   forced prefix length, or [None] when the space is exhausted.
   [prunes] is bumped per candidate retired by its sleep set. *)
let next_choice ex prunes =
  let rec at d =
    if d < 0 then None
    else begin
      let n = node_at ex d in
      let fresh () = n.backtrack land lnot n.tried in
      let rec take () =
        let c = fresh () in
        if c = 0 then at (d - 1)
        else begin
          let t = ref 0 in
          while c land bit !t = 0 do
            incr t
          done;
          n.tried <- n.tried lor bit !t;
          if n.sleep land bit !t <> 0 then begin
            incr prunes;
            take ()
          end
          else begin
            n.chosen <- !t;
            n.ev <- None;
            Some (d + 1)
          end
        end
      in
      take ()
    end
  in
  at (ex.len - 1)

let explore ?(config = default_config) (program : program) =
  let stack = ref [||] in
  let schedules = ref 0
  and complete_runs = ref 0
  and prunes = ref 0
  and backtracks = ref 0
  and steps = ref 0
  and max_trace = ref 0
  and diverged = ref 0 in
  let counterexample = ref None in
  let complete = ref false in
  let forced = ref 0 in
  let nthreads = ref 1 in
  (try
     let continue = ref true in
     while !continue do
       if !schedules >= config.max_schedules then begin
         continue := false (* budget out; [complete] stays false *)
       end
       else begin
         incr schedules;
         let inst = program.prepare () in
         nthreads := max !nthreads (Array.length inst.bodies);
         let ex =
           {
             stack;
             len = 0;
             forced = !forced;
             depth = 0;
             sleep_cur = 0;
             last_cell = Array.make (Array.length inst.bodies) (-1);
             streak = Array.make (Array.length inst.bodies) 0;
             snap = Array.make (Array.length inst.bodies) 0;
             thr = Array.make (Array.length inst.bodies) spin_threshold;
             fp =
               Array.init (Array.length inst.bodies) (fun _ ->
                   Hashtbl.create 16);
             ro_streak = Array.make (Array.length inst.bodies) 0;
             stall_thr = Array.make (Array.length inst.bodies) stall_threshold;
             writes = Hashtbl.create 64;
             cfg = config;
           }
         in
         let outcome =
           match
             Sim.Sched.run ~profile ~seed ~policy:(make_policy ex)
               ~on_commit:(make_on_commit ex)
               inst.bodies
           with
           | (_ : Sim.Sched.result) -> Ok ()
           | exception Abort r -> Error r
         in
         steps := !steps + ex.depth;
         if ex.depth > !max_trace then max_trace := ex.depth;
         (* Plant backtrack points from whatever trace we saw — aborted
            prefixes included; their events are real. *)
         backtracks :=
           !backtracks + analyze_backtracks ex (Array.length inst.bodies);
         let fail f =
           counterexample :=
             Some { schedule = schedule_of ex ex.len; failure = f };
           raise Exit
         in
         (if config.race_oracle then
            match
              find_race (trace_events ex) (Array.length inst.bodies)
            with
            | Some r -> fail (Race r)
            | None -> ());
         (match outcome with
         | Ok () -> begin
             incr complete_runs;
             match inst.verdict () with
             | Some msg -> fail (Invariant msg)
             | None -> ()
           end
         | Error Abort_sleep -> incr prunes
         | Error Abort_steps ->
             incr diverged;
             fail Diverged
         | Error (Abort_deadlock tids) -> fail (Deadlock tids));
         match next_choice ex prunes with
         | Some f -> forced := f
         | None ->
             complete := true;
             continue := false
       end
     done
   with Exit -> ());
  {
    program = program.name;
    schedules = !schedules;
    complete_runs = !complete_runs;
    sleep_prunes = !prunes;
    backtracks = !backtracks;
    steps = !steps;
    max_trace = !max_trace;
    diverged = !diverged;
    complete = !complete;
    counterexample = !counterexample;
  }

(* ---- single-schedule replay ------------------------------------------- *)

type replay_outcome = {
  followed : int;  (** decisions taken during the replayed run *)
  wedged : int list;  (** threads stopped by the replay watchdog *)
  replay_failure : failure option;
  trace : event list;  (** every committed access, in execution order *)
}

(** Re-execute one schedule (e.g. a counterexample's) under
    {!Sim.Sched.replay}, with the same race scan and verdict as the
    explorer. Past the end of the schedule the run continues under the
    default lowest-tid rule with no spin parking, so two watchdogs bound
    runaway spinning, and either ends the run as a wedge of every thread
    still running: the virtual clock ([watchdog] cycles, every runnable
    thread past it), and [config.max_steps] decisions past the
    schedule's end. The second catches a low thread spinning on a lock
    that a higher one holds: the rule never runs the holder, whose clock
    stays put, so the first never fires. One event is recorded per
    decision at most, so the trace holds at most the schedule's length
    plus [config.max_steps] events (5,000 by default). *)
let run_schedule ?(config = default_config) ?(watchdog = 10_000_000)
    (program : program) schedule =
  let inst = program.prepare () in
  let events = ref [] in
  let nsteps = ref 0 in
  let cut = List.length schedule + config.max_steps in
  let base = Sim.Sched.replay schedule in
  let policy runnable =
    if !nsteps >= cut then
      raise (Abort (Abort_deadlock (List.map fst (Array.to_list runnable))));
    incr nsteps;
    base runnable
  in
  let on_commit ~tid ~cell ~kind ~wrote =
    events :=
      { step = !nsteps - 1; tid; cell; kind; wrote; stutter = false }
      :: !events
  in
  let wedged =
    match
      Sim.Sched.run ~profile ~seed ~policy ~on_commit ~watchdog inst.bodies
    with
    | res -> res.wedged
    | exception Abort (Abort_deadlock tids) -> tids
  in
  let events = List.rev !events in
  let failure =
    match
      if config.race_oracle then find_race events (Array.length inst.bodies)
      else None
    with
    | Some r -> Some (Race r)
    | None -> (
        if wedged <> [] then None
        else
          match inst.verdict () with
          | Some msg -> Some (Invariant msg)
          | None -> None)
  in
  { followed = !nsteps; wedged; replay_failure = failure; trace = events }
