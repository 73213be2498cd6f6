(** The progress-certification catalog: small fixed concurrent programs
    over the repo's structures, shaped for {!Liveness.certify} — 2–3
    threads, a handful of operations each, heavy contention on the root.

    Each entry pairs a {!Liveness.program} (whose [ops_done] exposes
    per-thread completed-operation counts, the checker's progress
    measure) with access to the structure's dynamic {!Mound.Stats.Ops}
    counters, so [repro progress] can print the measured
    [livelock_near_misses] next to the static verdict.

    The STM heap is deliberately absent: its transactional retry loop
    backs off through the thread PRNG, so a demonic scheduler never
    revisits a fingerprint and every run is inconclusive by
    construction. The lock-free mound, the locking mound and the CASN
    primitive are the structures whose progress claims the paper makes
    (§III–§IV) and the ones the checker can settle.

    Shared by [test_progress] and the [repro progress] subcommand. *)

type entry = {
  name : string;
  program : Liveness.program;
  last_ops : unit -> Mound.Stats.Ops.t option;
      (** counters of the most recently prepared instance *)
}

type script = [ `Insert of int | `Extract | `Extract_many ] list

(** Build an entry over any priority queue: each thread runs its script
    to completion, bumping its completed-operation count after every
    call. Construction and prepopulation run outside the simulation on a
    reseeded ambient generator, so every re-execution (and every replayed
    schedule) starts from an identical structure. *)
let pq_entry ~name ~(make : unit -> Pq.t) ?(prepopulate = [])
    (scripts : script list) : entry =
  let last_q : Pq.t option ref = ref None in
  let prepare () =
    Sim.Sched.seed_ambient 11L;
    let q = make () in
    List.iter q.insert prepopulate;
    last_q := Some q;
    let ops_done = Array.make (List.length scripts) 0 in
    let run i script =
      List.iter
        (fun op ->
          (match op with
          | `Insert v -> q.insert v
          | `Extract -> ignore (q.extract_min ())
          | `Extract_many -> ignore (q.extract_many ()));
          ops_done.(i) <- ops_done.(i) + 1)
        script
    in
    let bodies =
      Array.of_list (List.mapi (fun i s _tid -> run i s) scripts)
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  {
    name;
    program = { Liveness.name; prepare };
    last_ops =
      (fun () ->
        match !last_q with None -> None | Some q -> q.ops ());
  }

(* The standard shape: a prepopulated root both threads fight over,
   insert/extract on each side — every operation crosses the root, so a
   suspended victim parks its incomplete work where the survivor must
   either help past it (lock-free mound, CASN) or spin on it (locks). *)
let standard ~name (maker : Pq.maker) =
  pq_entry ~name
    ~make:(fun () -> maker.make ~capacity:64)
    ~prepopulate:[ 2; 5 ]
    [ [ `Insert 1; `Extract ]; [ `Insert 3; `Extract ] ]

(* Overlapping CASNs, both naming the cells in allocation order, twice
   on one side: the second attempt races against the helped completion
   of the first — the acquire/help/complete triangle of Harris et al. *)
let mcas_entry : entry =
  let prepare () =
    Sim.Sched.seed_ambient 11L;
    let open Sim_mcas in
    let zero = Int 0 and one = Int 1 and two = Int 2 and nine = Int 9 in
    let a = Cell.make zero and b = Cell.make zero in
    let ops_done = Array.make 2 0 in
    (* Outcomes are recorded, not branched on: whether each CASN won or
       lost the race, the attempt itself must complete — that is the
       lock-freedom claim under certification. *)
    let won = Array.make 3 false in
    let bodies =
      [|
        (fun _ ->
          won.(0) <- Cell.casn [| (a, zero, one); (b, zero, one) |];
          ops_done.(0) <- 1;
          won.(1) <- Cell.casn [| (a, one, two); (b, one, two) |];
          ops_done.(0) <- 2);
        (fun _ ->
          won.(2) <- Cell.casn [| (a, zero, nine); (b, zero, nine) |];
          ops_done.(1) <- 1);
      |]
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  {
    name = "mcas";
    program = { Liveness.name = "mcas"; prepare };
    last_ops = (fun () -> None);
  }

(* The relaxed MultiQueue front-end: two sequential mounds behind
   try-locks. [stickiness] exceeds the scripts' operation counts, so
   each thread draws its queue choices at most once and every retry
   path (try-lock acquisition, the emptiness scan) rotates
   deterministically — PRNG-free retries keep the demonic scheduler's
   fingerprints revisitable, so certification stays conclusive (unlike
   the STM heap's randomized backoff). Though lock-based, this program
   certifies lock-free: the pinned ambient seed lands the two threads
   on distinct sticky queues, so a suspended lock holder never owns the
   survivor's queue and the try-lock failover always finds an unlocked
   one — the progress property the MultiQueue design buys over a single
   shared lock (contrast the locking mound's starvation cycle). The
   claim is program-relative, not universal: two threads stuck to the
   same queue would starve exactly like the locking mound. *)
let multiqueue_entry =
  standard ~name:"multiqueue"
    (Pq.On_sim.multiqueue ~queues:2 ~stickiness:8 ~domains:2 ())

let catalog : entry list =
  [
    standard ~name:"lf-mound" Pq.On_sim.mound_lf;
    standard ~name:"lock-mound" Pq.On_sim.mound_lock;
    multiqueue_entry;
    mcas_entry;
  ]

let find name = List.find_opt (fun e -> e.name = name) catalog
let names () = List.map (fun e -> e.name) catalog
