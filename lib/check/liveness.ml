(** Liveness checking: non-progress-cycle detection over {!Sim.Sched}.

    The detector is a lasso search. Every scheduling decision hashes the
    global state into a fingerprint — the incremental shared-memory hash
    {!Sim.Mem.fingerprint} (maintained cell-by-cell as writes commit),
    each runnable thread's announced pending access (its control state at
    the yield granularity), each thread's PRNG state (consuming
    randomness is progress of a kind: randomized backoff must never look
    like a repeated state), and the per-thread completed-operation
    counts. A fingerprint seen before at the same operation counts is a
    candidate cycle whose decision window is "the pump"; the run then
    demands the fingerprint repeat at [confirm] consecutive period
    boundaries. Under a suspension adversary the pump is replayed
    verbatim — any schedule of runnable threads is admissible to an
    unfair adversary. Under a fair strategy replaying the pump would
    abandon fairness (it could silently starve a runnable thread, and a
    single-thread read spin would "confirm" trivially), so the strategy
    keeps making its own picks and the candidate survives only if those
    picks reproduce the window — the cycle must be the fair scheduler's
    own doing. Hash collisions and coincidences die either way and are
    counted as near misses; survivors are genuine non-progress cycles —
    livelock, deadlock or starvation counterexamples with a replayable
    schedule, like {!Check}'s.

    Adversary families map to progress properties:
    - {e fair} strategies (round-robin quanta; staggered solo-start
      sweeps that search for lock-ordering alignments) never stop
      scheduling a runnable thread. A cycle here refutes
      deadlock-freedom: even with every thread running, nothing
      completes.
    - {e suspension} strategies stop scheduling one victim after its
      [cut]-th decision, modelling a thread preempted indefinitely while
      holding whatever it holds. Lock-free structures shrug (survivors
      help the victim's operation and complete — [Survivors_done]);
      lock-based ones spin on the victim's lock forever, which the cycle
      detector reports as a starvation counterexample. *)

type config = {
  max_steps : int;
  quanta : int list;
  stagger : int;
  suspend_points : int;
}

let default_config =
  { max_steps = 20_000; quanta = [ 2; 7 ]; stagger = 6; suspend_points = 24 }

(* Pump repetitions a candidate cycle must survive (the state fingerprint
   repeating at every period boundary) before it is reported; failed
   confirmations count as near misses. *)
let confirm = 3

(* Longest candidate cycle period considered. *)
let max_pump = 512

(* Every run uses the uniform cost profile; sweeps run from one seed. *)
let profile = Sim.Profile.uniform
let sweep_seed = 42L

let quick_config =
  { max_steps = 10_000; quanta = [ 2 ]; stagger = 4; suspend_points = 8 }

type instance = {
  bodies : (int -> unit) array;
  ops_done : unit -> int array;
}

type program = { name : string; prepare : unit -> instance }

type strategy =
  | Round_robin of { quantum : int }
  | Staggered of { head : int list }
  | Suspend of { victim : int; cut : int }

type cycle = {
  strategy : strategy;
  seed : int64;
  prefix : Sim.Sched.Schedule.t;
  pump : Sim.Sched.Schedule.t;
  pump_writes : bool;
}

type report = {
  program : string;
  runs : int;
  completed : int;
  survivor_runs : int;
  inconclusive : int;
  near_misses : int;
  fair_cycle : cycle option;
  starvation_cycle : cycle option;
  max_op_steps : int;
  lock_free : bool;
  deadlock_free : bool;
}

let pp_strategy ppf = function
  | Round_robin { quantum } -> Format.fprintf ppf "round-robin/%d" quantum
  | Staggered { head } ->
      Format.fprintf ppf "staggered[%s]"
        (Sim.Sched.Schedule.to_string head)
  | Suspend { victim; cut } ->
      Format.fprintf ppf "suspend t%d after %d" victim cut

let cycle_kind c =
  match (c.strategy, c.pump_writes) with
  | Suspend _, _ -> "starvation"
  | _, true -> "livelock"
  | _, false -> "deadlock"

let pp_cycle ppf c =
  Format.fprintf ppf "%s under %a (seed %Ld): prefix '%s' pump '%s'"
    (cycle_kind c) pp_strategy c.strategy c.seed
    (Sim.Sched.Schedule.to_string c.prefix)
    (Sim.Sched.Schedule.to_string c.pump)

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %d runs (%d completed, %d survivor-done, %d inconclusive, %d near \
     misses), worst op span %d decisions — lock-free: %s, deadlock-free: %s"
    r.program r.runs r.completed r.survivor_runs r.inconclusive r.near_misses
    r.max_op_steps
    (if r.lock_free then "yes" else "NO")
    (if r.deadlock_free then "yes" else "NO");
  (match r.fair_cycle with
  | Some c -> Format.fprintf ppf "@,  fair cycle: %a" pp_cycle c
  | None -> ());
  match r.starvation_cycle with
  | Some c -> Format.fprintf ppf "@,  starvation cycle: %a" pp_cycle c
  | None -> ()

(* ---- state fingerprints ------------------------------------------------ *)

let mix h v = (((h lxor v) * 0x01000193) lxor (h lsr 17)) land max_int

(* The runnable set handed to the policy, with each thread's pending
   access, IS the control state at yield granularity: two moments with
   the same memory, same pendings, same PRNG states and same completed-op
   counts evolve identically under the same future choices. *)
let fingerprint (runnable : (int * Sim.Sched.pending option) array) ops =
  let h = ref (Sim.Mem.fingerprint ()) in
  Array.iter
    (fun (t, p) ->
      h := mix !h (t + 1);
      (match p with
      | None -> h := mix !h 0x55
      | Some { Sim.Sched.cell; kind } ->
          h :=
            mix !h
              ((cell * 4)
              + (match kind with Read -> 1 | Write -> 2 | Cas -> 3)));
      h := mix !h (Sim.Sched.rng_fingerprint t))
    runnable;
  Array.iter (fun c -> h := mix !h c) ops;
  !h

(* ---- one run under one adversary --------------------------------------- *)

type outcome = Completed | Survivors_done | Cycle_found of cycle | Out_of_steps

exception Stop of outcome

type run_result = {
  outcome : outcome;
  near : int;
  span : int;
  dec_per_tid : int array;
}

(* Growable parallel logs: the decision sequence (for prefix/pump
   extraction and pump replay) and a committed-write flag per decision. *)
type buf = { mutable a : int array; mutable n : int }

let buf_create () = { a = Array.make 1024 0; n = 0 }

let buf_push b v =
  if b.n = Array.length b.a then begin
    let a' = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a' 0 b.n;
    b.a <- a'
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let buf_slice b lo hi = Array.to_list (Array.sub b.a lo (hi - lo))

let run_one ~(cfg : config) ~(program : program) ~strategy =
  Sim.Mem.track_begin ();
  Fun.protect ~finally:Sim.Mem.track_end @@ fun () ->
  let inst = program.prepare () in
  let n = Array.length inst.bodies in
  let dec = buf_create () and wrote = buf_create () in
  let dec_per_tid = Array.make n 0 in
  let table = Hashtbl.create 997 in
  let last_ops = Array.make n 0 and op_start = Array.make n 0 in
  let span = ref 0 and near = ref 0 in
  (* strategy state *)
  let rr_cur = ref 0 and rr_used = ref 0 and rr_q = ref 1 in
  let head = ref [] in
  let victim = ref (-1) and cut = ref max_int and vcount = ref 0 in
  (match strategy with
  | Round_robin { quantum } -> rr_q := max 1 quantum
  | Staggered { head = h } -> head := h
  | Suspend { victim = v; cut = c } ->
      victim := v;
      cut := c);
  (* confirmation state for a candidate cycle *)
  let confirming = ref false in
  let c_start = ref 0 and c_period = ref 0 and c_pos = ref 0 and c_fp = ref 0 in
  let runnable_mem t runnable = Array.exists (fun (x, _) -> x = t) runnable in
  let fail_confirm fp =
    confirming := false;
    incr near;
    Hashtbl.replace table fp dec.n
  in
  let rr_pick eligible =
    let ok t = List.mem t eligible in
    if ok !rr_cur && !rr_used < !rr_q then begin
      incr rr_used;
      !rr_cur
    end
    else begin
      let rec adv k =
        let t = (!rr_cur + k) mod n in
        if ok t then t else adv (k + 1)
      in
      let t = adv 1 in
      rr_cur := t;
      rr_used := 1;
      t
    end
  in
  let normal_pick runnable =
    let all = Array.to_list (Array.map fst runnable) in
    let eligible =
      if !victim >= 0 && !vcount >= !cut then
        List.filter (fun t -> t <> !victim) all
      else all
    in
    if eligible = [] then raise (Stop Survivors_done);
    let rec from_head () =
      match !head with
      | [] -> rr_pick eligible
      | h :: tl ->
          head := tl;
          if List.mem h eligible then begin
            rr_cur := h;
            rr_used := 1;
            h
          end
          else from_head ()
    in
    from_head ()
  in
  let policy runnable =
    let d = dec.n in
    if d >= cfg.max_steps then raise (Stop Out_of_steps);
    let ops = inst.ops_done () in
    for t = 0 to n - 1 do
      if ops.(t) > last_ops.(t) then begin
        if d - op_start.(t) > !span then span := d - op_start.(t);
        op_start.(t) <- d;
        last_ops.(t) <- ops.(t)
      end
    done;
    let fp = fingerprint runnable ops in
    let replay_pump () =
      (* next decision of the candidate's window, provided its thread is
         still runnable (it must be, if the state truly repeated) *)
      let t = dec.a.(!c_start + (!c_pos mod !c_period)) in
      if runnable_mem t runnable then begin
        incr c_pos;
        Some t
      end
      else None
    in
    (* A fair strategy must keep choosing for itself during
       confirmation — replaying the window verbatim could silently starve
       a runnable thread, turning mere starvation into a bogus fair
       verdict. The candidate survives only if the strategy's own picks
       reproduce the window. *)
    let fair = match strategy with Suspend _ -> false | _ -> true in
    let fair_step () =
      let t = normal_pick runnable in
      if t = dec.a.(!c_start + (!c_pos mod !c_period)) then incr c_pos
      else fail_confirm fp;
      t
    in
    let suspend_step () =
      match replay_pump () with
      | Some t -> t
      | None ->
          fail_confirm fp;
          normal_pick runnable
    in
    let choice =
      if !confirming then begin
        let boundary = !c_pos mod !c_period = 0 in
        if boundary && fp <> !c_fp then begin
          fail_confirm fp;
          normal_pick runnable
        end
        else if boundary && !c_pos >= !c_period * confirm then begin
          let lo = !c_start and hi = !c_start + !c_period in
          let pump_writes = ref false in
          for i = lo to hi - 1 do
            if wrote.a.(i) <> 0 then pump_writes := true
          done;
          raise
            (Stop
               (Cycle_found
                  {
                    strategy;
                    seed = sweep_seed;
                    prefix = buf_slice dec 0 lo;
                    pump = buf_slice dec lo hi;
                    pump_writes = !pump_writes;
                  }))
        end
        else if fair then fair_step ()
        else suspend_step ()
      end
      else
        match Hashtbl.find_opt table fp with
        | Some i when d - i <= max_pump && d > i ->
            (* A fair strategy schedules every runnable thread infinitely
               often, so a window omitting one (e.g. a read spin inside a
               single quantum) cannot be its infinite behaviour — not a
               candidate, however stable its fingerprint. *)
            let admissible =
              (not fair)
              || Array.for_all
                   (fun (t, _) ->
                     let rec mem k = k < d && (dec.a.(k) = t || mem (k + 1)) in
                     mem i)
                   runnable
            in
            if not admissible then
              (* Keep the oldest occurrence: when every decision lands in
                 the same state (both threads pure-spinning), the revisit
                 distance would otherwise stay pinned at 1 and a window
                 wide enough to cover all runnable threads never forms.
                 The entry refreshes anyway once [d - i] exceeds
                 [max_pump]. *)
              normal_pick runnable
            else begin
              confirming := true;
              c_start := i;
              c_period := d - i;
              c_pos := 0;
              c_fp := fp;
              if fair then fair_step () else suspend_step ()
            end
        | _ ->
            Hashtbl.replace table fp d;
            normal_pick runnable
    in
    if choice = !victim then incr vcount;
    buf_push dec choice;
    buf_push wrote 0;
    dec_per_tid.(choice) <- dec_per_tid.(choice) + 1;
    choice
  in
  let on_commit ~tid:_ ~cell:_ ~kind:_ ~wrote:w =
    (* the commit belongs to the decision just taken *)
    if w && wrote.n > 0 then wrote.a.(wrote.n - 1) <- 1
  in
  let outcome =
    match
      Sim.Sched.run ~profile ~seed:sweep_seed ~policy ~on_commit inst.bodies
    with
    | (_ : Sim.Sched.result) -> Completed
    | exception Stop o -> o
  in
  { outcome; near = !near; span = !span; dec_per_tid }

(* ---- adversary sweeps -------------------------------------------------- *)

let staggered_heads cfg n =
  let rep t k = List.init k (fun _ -> t) in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          if a = b then []
          else
            List.concat_map
              (fun i ->
                List.init cfg.stagger (fun j ->
                    rep a (i + 1) @ rep b (j + 1)))
              (List.init cfg.stagger Fun.id))
        (List.init n Fun.id))
    (List.init n Fun.id)

(* Sample [1..total] at up to [suspend_points] evenly spaced cuts. *)
let suspend_cuts cfg total =
  if total <= 0 then []
  else if total <= cfg.suspend_points then List.init total (fun i -> i + 1)
  else
    List.init cfg.suspend_points (fun i ->
        1 + (i * (total - 1) / (cfg.suspend_points - 1)))
    |> List.sort_uniq compare

let certify ?(config = default_config) (program : program) =
  let n = Array.length ((program.prepare ()).bodies) in
  let runs = ref 0 and completed = ref 0 and survivor = ref 0 in
  let inconclusive = ref 0 and fair_inconclusive = ref 0 in
  let near = ref 0 and span = ref 0 in
  let fair_cycle = ref None and starvation_cycle = ref None in
  let exec ~fair strategy =
    incr runs;
    let r = run_one ~cfg:config ~program ~strategy in
    near := !near + r.near;
    if r.span > !span then span := r.span;
    (match r.outcome with
    | Completed -> incr completed
    | Survivors_done -> incr survivor
    | Out_of_steps ->
        incr inconclusive;
        if fair then incr fair_inconclusive
    | Cycle_found c ->
        if fair then begin
          if !fair_cycle = None then fair_cycle := Some c
        end
        else if !starvation_cycle = None then starvation_cycle := Some c);
    r
  in
  (* Baseline fair run; its per-thread decision counts size the
     suspension-cut coordinate space for each victim. *)
  let baseline = exec ~fair:true (Round_robin { quantum = 1 }) in
  List.iter
    (fun s -> if !fair_cycle = None then ignore (exec ~fair:true s))
    (List.map (fun q -> Round_robin { quantum = q }) config.quanta
    @ List.map (fun h -> Staggered { head = h }) (staggered_heads config n));
  for v = 0 to n - 1 do
    List.iter
      (fun c ->
        if !starvation_cycle = None then
          ignore (exec ~fair:false (Suspend { victim = v; cut = c })))
      (suspend_cuts config baseline.dec_per_tid.(v))
  done;
  {
    program = program.name;
    runs = !runs;
    completed = !completed;
    survivor_runs = !survivor;
    inconclusive = !inconclusive;
    near_misses = !near;
    fair_cycle = !fair_cycle;
    starvation_cycle = !starvation_cycle;
    max_op_steps = !span;
    lock_free =
      !fair_cycle = None && !starvation_cycle = None && !inconclusive = 0;
    deadlock_free = !fair_cycle = None && !fair_inconclusive = 0;
  }

(* ---- cycle replay ------------------------------------------------------ *)

exception Replay_stop of bool

let run_cycle ?(seed = sweep_seed) (program : program) ~prefix ~pump =
  if pump = [] then invalid_arg "Liveness.run_cycle: empty pump";
  Sim.Mem.track_begin ();
  Fun.protect ~finally:Sim.Mem.track_end @@ fun () ->
  let inst = program.prepare () in
  let pre = ref prefix in
  let parr = Array.of_list pump in
  let plen = Array.length parr in
  let pos = ref 0 in
  let expect = ref (-1) in
  let policy runnable =
    let ok t = Array.exists (fun (x, _) -> x = t) runnable in
    match !pre with
    | t :: tl ->
        pre := tl;
        if ok t then t else raise (Replay_stop false)
    | [] ->
        let i = !pos mod plen in
        if i = 0 then begin
          let fp = fingerprint runnable (inst.ops_done ()) in
          if !expect < 0 then expect := fp
          else if fp <> !expect then raise (Replay_stop false)
          else if !pos >= plen * confirm then raise (Replay_stop true)
        end;
        incr pos;
        let t = parr.(i) in
        if ok t then t else raise (Replay_stop false)
  in
  match Sim.Sched.run ~profile ~seed ~policy inst.bodies with
  | (_ : Sim.Sched.result) -> false (* ran to completion: progress, no cycle *)
  | exception Replay_stop r -> r

let check_cycle (program : program) (c : cycle) =
  run_cycle ~seed:c.seed program ~prefix:c.prefix ~pump:c.pump
