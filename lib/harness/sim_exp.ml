(** Fig. 2 experiment driver on the virtual-time simulator.

    Structures are created and pre-populated {e outside} the simulation
    (setup is free, as on a real testbed), then the measured threads run
    as simulated fibers. Throughput is total elements processed divided by
    the virtual makespan converted through the profile's clock rate —
    the same "1000 Ops/sec vs threads" axes as the paper. *)

type point = {
  threads : int;
  throughput : float;  (** operations per second *)
  span_cycles : int;
  ops : int;
}

type series = { structure : string; points : point list }

(* Pre-populate with [n] random keys drawn from a deterministic ambient
   stream. *)
let populate (q : Pq.t) n ~seed =
  Sim.Sched.seed_ambient seed;
  let rng = Prng.create (Int64.add seed 17L) in
  for _ = 1 to n do
    q.insert (Prng.int rng Workload.key_range)
  done

let capacity_for ~panel ~threads ~ops_per_thread ~init_size =
  match (panel : Workload.panel) with
  | Insert -> (threads * ops_per_thread) + 64
  | Extract -> (threads * ops_per_thread) + 64
  | Mixed -> init_size + (threads * ops_per_thread) + 64
  | Extract_many -> init_size + 64

(** Run one (structure, panel, thread-count) cell. *)
let run_cell ?(profile = Sim.Profile.x86) ?(seed = 7L) ~panel ~threads
    ~ops_per_thread ~init_size (maker : Pq.maker) =
  let q =
    maker.make ~capacity:(capacity_for ~panel ~threads ~ops_per_thread ~init_size)
  in
  (match (panel : Workload.panel) with
  | Insert -> ()
  | Extract -> populate q (threads * ops_per_thread) ~seed
  | Mixed | Extract_many -> populate q init_size ~seed);
  let counts = Array.make threads 0 in
  let body tid =
    let ops =
      Workload.run_thread ~panel ~q ~rand:Sim.Sched.rand_int
        ~ops:ops_per_thread
    in
    counts.(tid) <- ops
  in
  let result = Sim.Sched.run ~profile ~seed (Array.make threads body) in
  let ops = Array.fold_left ( + ) 0 counts in
  let seconds = Sim.Profile.seconds profile result.span in
  {
    threads;
    throughput = (if seconds > 0. then float_of_int ops /. seconds else 0.);
    span_cycles = result.span;
    ops;
  }

(** Sweep thread counts for one structure. *)
let run_series ?profile ?seed ~panel ~thread_counts ~ops_per_thread ~init_size
    (maker : Pq.maker) =
  {
    structure = maker.name;
    points =
      List.map
        (fun threads ->
          run_cell ?profile ?seed ~panel ~threads ~ops_per_thread ~init_size
            maker)
        thread_counts;
  }
