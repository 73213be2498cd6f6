(** Workload definitions shared by the simulator and real-domain drivers.

    The four panels of the paper's Fig. 2 (§VI-C..F), plus key-order
    generators for the sequential structure experiments (Tables I–III). *)

type panel = Insert | Extract | Mixed | Extract_many

let panel_name = function
  | Insert -> "insert"
  | Extract -> "extractmin"
  | Mixed -> "mixed"
  | Extract_many -> "extractmany"

let panel_of_string = function
  | "insert" -> Some Insert
  | "extractmin" | "extract" -> Some Extract
  | "mixed" -> Some Mixed
  | "extractmany" | "extract-many" -> Some Extract_many
  | _ -> None

(** Key range for random keys; a wide range keeps accidental duplicates
    rare, as in the paper's "randomly selected values". *)
let key_range = 1 lsl 30

(** Insertion orders for the randomization experiments (Table I–III):
    [Random] is the average case, [Increasing] the worst (every list has
    one element), [Decreasing] the best (the mound degenerates to one
    sorted list at the root). *)
type order = Random_order | Increasing | Decreasing

let order_name = function
  | Random_order -> "Random"
  | Increasing -> "Increasing"
  | Decreasing -> "Decreasing"

(** [keys ~order ~n ~seed] materializes an insertion sequence. *)
let keys ~order ~n ~seed =
  match order with
  | Increasing -> Array.init n (fun i -> i)
  | Decreasing -> Array.init n (fun i -> n - 1 - i)
  | Random_order ->
      let rng = Prng.create seed in
      Array.init n (fun _ -> Prng.int rng key_range)

(** Zipfian key distribution for the overload scenarios: real queues see
    skewed keys (a few hot priorities, a long cold tail), which
    concentrates mound traffic on few nodes. Sampled by inverse CDF over
    a precomputed cumulative weight table of [zipf_ranks] ranks with
    exponent [zipf_skew] (≈1 is the classic web-trace value). *)
type zipf = { cum : float array; stride : int }

let zipf_ranks = 1024
let zipf_skew = 0.99

let zipf () =
  let w =
    Array.init zipf_ranks (fun i -> 1. /. (float_of_int (i + 1) ** zipf_skew))
  in
  let total = Array.fold_left ( +. ) 0. w in
  let cum = Array.make zipf_ranks 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. x;
      cum.(i) <- !acc /. total)
    w;
  { cum; stride = key_range / zipf_ranks }

(** [zipf_key z ~rand] draws a key: rank 0 (the hottest) maps to the
    smallest keys, so skew pressure lands near the mound's root. [rand]
    is the caller's thread-local generator, as in {!run_thread}. *)
let zipf_key z ~rand =
  let res = 1 lsl 20 in
  let u = float_of_int (rand res) /. float_of_int res in
  let lo = ref 0
  and hi = ref (Array.length z.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cum.(mid) < u then lo := mid + 1 else hi := mid
  done;
  (!lo * z.stride) + rand z.stride

(** One thread's share of a panel. [rand] must be the executing thread's
    own generator; [ops] is the operation budget. Returns the number of
    {e elements} processed (for [Extract_many], calls can cover many
    elements; for the others it equals completed operations). *)
let run_thread ~(panel : panel) ~(q : Pq.t) ~rand ~ops =
  match panel with
  | Insert ->
      for _ = 1 to ops do
        q.insert (rand key_range)
      done;
      ops
  | Extract ->
      let done_ = ref 0 in
      for _ = 1 to ops do
        match q.extract_min () with Some _ -> incr done_ | None -> ()
      done;
      !done_
  | Mixed ->
      let done_ = ref 0 in
      for _ = 1 to ops do
        if rand 2 = 0 then begin
          q.insert (rand key_range);
          incr done_
        end
        else
          match q.extract_min () with
          | Some _ -> incr done_
          | None -> incr done_ (* an empty extract is still an operation *)
      done;
      !done_
  | Extract_many ->
      let got = ref 0 in
      let rec drain () =
        match q.extract_many () with
        | [] -> ()
        | l ->
            got := !got + List.length l;
            drain ()
      in
      drain ();
      !got
