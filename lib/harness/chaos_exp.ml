(** Crash-stop sweep experiments: the progress-guarantee evaluation.

    The experiment that motivates the whole chaos stack: run a scripted
    mixed workload on a mound, crash one thread at its [k]-th shared
    access for {e every} [k] in the victim's access range, and observe
    what happens to the survivors.

    - On the lock-free mound the paper's §III claim is that helpers
      complete any in-flight operation, so every survivor finishes, the
      surviving history is linearizable, and the structure drains to
      exactly the elements it should hold (the victim's in-flight insert
      may or may not have landed — both are legal).
    - On the locking mound a victim that dies holding a node lock wedges
      every survivor that needs that node; the scheduler's virtual-time
      watchdog converts that loss of progress into a reported outcome.

    Workload design: the victim inserts only {e huge} keys while
    survivors insert and extract only {e small} keys over a small-key
    pre-population that survivors can never exhaust (each survivor
    extracts only after inserting, so per-thread extracts never outnumber
    inserts). A linearizable extract-min therefore never returns a victim
    key, and the victim's crashed operation cannot contaminate the
    survivors' history, which is checked with the Wing–Gong checker
    ({!Lin}) against the small keys alone.

    Everything is deterministic in [(plan, seed)]: {!fingerprint} folds
    every outcome, counter and drain verdict into a string that must be
    byte-for-byte identical across repeated sweeps. *)

module CR = Chaos.Make (Sim.Runtime)
module Lf = Mound.Lf.Make (CR) (Mound.Int_ord)
module Lock = Mound.Lock.Make (CR) (Mound.Int_ord)

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

(* ---------------- workload script ---------------- *)

let nthreads = 4 (* victim + 3 survivors *)
let prepop_n = 24
let survivor_ops = 4 (* insert+extract pairs per survivor *)
let victim_ops = 3
let huge_base = 1_000_000

let prepop_keys = List.init prepop_n (fun i -> i * 37 mod 997)

let survivor_script tid =
  List.concat
    (List.init survivor_ops (fun i ->
         [ `Insert (((tid * 101) + (i * 13)) mod 997); `Extract ]))

(* ---------------- one simulated run ---------------- *)

type one_run = {
  sched : Sim.Sched.result;
  events : Lin.event list;  (** survivors' events *)
  faults : Chaos.counters;  (** snapshot taken before the drain *)
  stats : Mound.Stats.t;  (** fullness snapshot taken before the drain *)
  small_books_ok : bool option;
  leaked : bool;
}

let snap (c : Chaos.counters) =
  {
    Chaos.gets = c.gets;
    sets = c.sets;
    cas = c.cas;
    rmw = c.rmw;
    spurious_failures = c.spurious_failures;
    delays = c.delays;
  }

(* Run the scripted workload once. [pq] must be a freshly made handle
   over {!CR}; [crash] of 0 means no crash. [leak_check] gates the
   post-run drain: draining a structure with a leaked lock would spin
   forever in ambient (non-virtual) time. *)
let run_once ~(pq : Pq.t) ~seed ~crash ~watchdog ~leak_check ~snapshot () =
  Sim.Sched.seed_ambient seed;
  List.iter pq.insert prepop_keys;
  let victim_done = ref 0 in
  let recorders =
    List.init (nthreads - 1) (fun i ->
        Lin.recorder pq (survivor_script (i + 1)))
  in
  let bodies =
    Array.of_list
      ((fun _tid ->
         for i = 0 to victim_ops - 1 do
           pq.insert (huge_base + i);
           incr victim_done
         done)
      :: List.map (fun (body, _) -> fun _tid -> body ()) recorders)
  in
  let crashes = if crash = 0 then [] else [ (0, crash) ] in
  let sched = Sim.Sched.run ~seed ~crashes ?watchdog bodies in
  let events = List.concat_map (fun (_, collect) -> collect ()) recorders in
  let faults = snap CR.counters in
  let leaked = leak_check () in
  let stats = snapshot () in
  let small_books_ok =
    if leaked || sched.wedged <> [] then None
    else begin
      (* Quiescent drain under a quiet plan (the run's fault counters are
         already snapshotted above; [configure] zeroes the live ones). *)
      let storm = CR.current_plan () in
      CR.configure Chaos.quiet;
      let rec go acc =
        match pq.extract_min () with
        | None -> List.rev acc
        | Some v -> go (v :: acc)
      in
      let drained = go [] in
      CR.configure storm;
      (* Book-keeping on the small keys, which are fully observable:
         drained smalls + survivor-extracted smalls must equal the
         pre-population plus the survivors' inserts, as multisets; the
         drained huge keys are the victim's completed inserts plus
         possibly the in-flight one. *)
      let extracted =
        List.filter_map
          (function { Lin.op = Lin.Ext (Some v); _ } -> Some v | _ -> None)
          events
      in
      let inserted =
        List.filter_map
          (function { Lin.op = Lin.Ins v; _ } -> Some v | _ -> None)
          events
      in
      let smalls = List.filter (fun v -> v < huge_base) drained in
      let huges = List.length drained - List.length smalls in
      Some
        (List.sort compare (smalls @ extracted)
         = List.sort compare (prepop_keys @ inserted)
        && (huges = !victim_done || huges = !victim_done + 1))
    end
  in
  { sched; events; faults; stats; small_books_ok; leaked }

(* ---------------- the sweep ---------------- *)

let add_counters (into : Chaos.counters) (c : Chaos.counters) =
  into.gets <- into.gets + c.gets;
  into.sets <- into.sets + c.sets;
  into.cas <- into.cas + c.cas;
  into.rmw <- into.rmw + c.rmw;
  into.spurious_failures <- into.spurious_failures + c.spurious_failures;
  into.delays <- into.delays + c.delays

let add_ops (into : Mound.Stats.Ops.t) (o : Mound.Stats.Ops.t) =
  into.insert_retries <- into.insert_retries + o.insert_retries;
  into.insert_backoffs <- into.insert_backoffs + o.insert_backoffs;
  into.root_fallbacks <- into.root_fallbacks + o.root_fallbacks;
  into.extract_retries <- into.extract_retries + o.extract_retries;
  into.helps <- into.helps + o.helps;
  into.lock_spins <- into.lock_spins + o.lock_spins;
  into.livelock_near_misses <- into.livelock_near_misses + o.livelock_near_misses;
  into.deadline_timeouts <- into.deadline_timeouts + o.deadline_timeouts;
  into.rejected <- into.rejected + o.rejected;
  into.shed <- into.shed + o.shed;
  into.lock_recoveries <- into.lock_recoveries + o.lock_recoveries

(* Generic sweep over a structure: [make] returns a fresh handle plus
   its leak-test and fullness closures. *)
let sweep_generic ~structure ~plan ~stride ~seed
    ~(make : unit -> Pq.t * (unit -> bool) * (unit -> Mound.Stats.t)) () =
  let faults =
    {
      Chaos.gets = 0;
      sets = 0;
      cas = 0;
      rmw = 0;
      spurious_failures = 0;
      delays = 0;
    }
  in
  let ops = Mound.Stats.Ops.create () in
  let last_stats = ref None in
  let do_run ~crash ~watchdog =
    CR.configure plan;
    let pq, leak_check, get_stats = make () in
    let r = run_once ~pq ~seed ~crash ~watchdog ~leak_check ~snapshot:get_stats () in
    add_counters faults r.faults;
    Option.iter (add_ops ops) (pq.ops ());
    last_stats := Some r.stats;
    r
  in
  (* Fault-free baseline: measures the victim's access range (the crash
     coordinate space) and the span the watchdog is scaled from. The
     pre-crash prefix of every crashed run is identical to the baseline,
     so the baseline's access count is the right sweep bound. *)
  let baseline = do_run ~crash:0 ~watchdog:None in
  let victim_accesses = baseline.sched.accesses.(0) in
  let watchdog = Some ((4 * baseline.sched.span) + 20_000) in
  let crash_points =
    let rec points k =
      if k > victim_accesses then [] else k :: points (k + stride)
    in
    points 1
  in
  let runs =
    List.map
      (fun crash ->
        let r = do_run ~crash ~watchdog in
        let outcome =
          if r.sched.wedged <> [] then Wedged r.sched.wedged
          else if r.leaked then Leaked_lock
          else Completed
        in
        let linearizable =
          match outcome with
          | Wedged _ -> None
          | Completed | Leaked_lock ->
              Some (Lin.check ~init:prepop_keys r.events)
        in
        {
          crash_point = crash;
          outcome;
          linearizable;
          conserved = r.small_books_ok;
        })
      crash_points
  in
  {
    structure;
    plan;
    victim_accesses;
    runs;
    faults;
    ops;
    stats = Option.get !last_stats;
  }

let make_lf () =
  let q = Lf.create () in
  let pq =
    { (Pq.of_mound (module Lf) q) with ops = (fun () -> Some (Lf.ops q)) }
  in
  let stats () =
    Mound.Stats.compute
      ~iter:(fun f -> Lf.fold_nodes q (fun () i l -> f i l) ())
      ~to_float:float_of_int ()
  in
  (* The LF mound cannot be poisoned: any reader completes a dead
     thread's published descriptor, so it is always drainable. *)
  (pq, (fun () -> false), stats)

let make_lock () =
  let q = Lock.create () in
  let pq =
    { (Pq.of_mound (module Lock) q) with ops = (fun () -> Some (Lock.ops q)) }
  in
  let stats () =
    Mound.Stats.compute
      ~iter:(fun f -> Lock.fold_nodes q (fun () i l -> f i l) ())
      ~to_float:float_of_int ()
  in
  (* A crashed lock holder leaves a locked node behind, and only a lock
     holder can leave the mound property violated — [Lock.check] detects
     both, so its failure is the poisoned-structure signal. *)
  (pq, (fun () -> not (Lock.check q)), stats)

let sweep_lf ?(plan = Chaos.default ~seed:7L) ?(stride = 1) ~seed () =
  sweep_generic ~structure:Pq.On_sim.mound_lf.name ~plan ~stride ~seed
    ~make:make_lf ()

let sweep_lock ?(plan = Chaos.default ~seed:7L) ?(stride = 1) ~seed () =
  sweep_generic ~structure:Pq.On_sim.mound_lock.name ~plan ~stride ~seed
    ~make:make_lock ()

(* ---------------- verdicts and reporting ---------------- *)

let count p runs = List.length (List.filter p runs)

let completed s = count (fun r -> r.outcome = Completed) s.runs

let leaked s = count (fun r -> r.outcome = Leaked_lock) s.runs

let wedged s =
  count (fun r -> match r.outcome with Wedged _ -> true | _ -> false) s.runs

let all_linearizable s =
  List.for_all (fun r -> r.linearizable <> Some false) s.runs

let all_conserved s = List.for_all (fun r -> r.conserved <> Some false) s.runs

let fingerprint s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s space=%d " s.structure s.victim_accesses);
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%d:%s%s%s;" r.crash_point
           (match r.outcome with
           | Completed -> "C"
           | Leaked_lock -> "L"
           | Wedged ts -> "W" ^ String.concat "," (List.map string_of_int ts))
           (match r.linearizable with
           | None -> ""
           | Some true -> "+lin"
           | Some false -> "-lin")
           (match r.conserved with
           | None -> ""
           | Some true -> "+bal"
           | Some false -> "-bal")))
    s.runs;
  Buffer.add_string b
    (Printf.sprintf " faults[%d/%d cas-failed %d delays]"
       s.faults.spurious_failures s.faults.cas s.faults.delays);
  Buffer.add_string b
    (Printf.sprintf " ops[%d/%d/%d/%d/%d/%d/%d/%d]" s.ops.insert_retries
       s.ops.insert_backoffs s.ops.root_fallbacks s.ops.extract_retries
       s.ops.helps s.ops.lock_spins s.ops.deadline_timeouts
       s.ops.lock_recoveries);
  Buffer.contents b

let print_sweep ppf s =
  Format.fprintf ppf "@[<v>%s: crash-stop sweep over %d shared accesses@,"
    s.structure s.victim_accesses;
  Format.fprintf ppf
    "  plan: seed %Ld, %d/1000 spurious CAS failure, %d/1000 delay burst \
     of %d@,"
    s.plan.seed s.plan.cas_fail_permil s.plan.delay_permil s.plan.delay_relax;
  Format.fprintf ppf
    "  outcomes: %d completed, %d leaked-lock, %d wedged (of %d crash \
     points)@,"
    (completed s) (leaked s) (wedged s) (List.length s.runs);
  Format.fprintf ppf "  surviving histories linearizable: %s@,"
    (if all_linearizable s then "all" else "VIOLATION");
  Format.fprintf ppf "  element conservation: %s@,"
    (if all_conserved s then "all drains balanced" else "VIOLATION");
  Format.fprintf ppf "  faults:   %a@," Chaos.pp_counters s.faults;
  Format.fprintf ppf "  retries:  %a@," Mound.Stats.Ops.pp s.ops;
  Format.fprintf ppf "  fullness: %a@]@." Mound.Stats.pp_incomplete s.stats
