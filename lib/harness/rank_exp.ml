(** Rank-error measurement for relaxed priority queues.

    Methodology per "Engineering MultiQueues": pre-populate a queue with
    a known key multiset, let [threads] domains drain it concurrently
    while timestamping every extraction, then replay the merged,
    stamp-ordered extraction log against an oracle multiset. An
    extraction's {e rank error} is the number of elements still present
    in the oracle that are strictly smaller than the value it returned —
    0 for an exact [extract_min], and for a MultiQueue a measured
    quantity whose distribution (mean / max per thread count) is the
    price paid for scalability.

    Timestamps are [Runtime.Real.monotonic_ns] read immediately after
    each extraction returns, so the replay order approximates the real
    linearization order; inversions between near-simultaneous
    extractions can shift individual errors by a few ranks but leave the
    distribution intact (each inversion swaps two adjacent replay
    steps). The exact structures double as a calibration: their measured
    mean stays near zero, bounding the noise this approximation adds.

    The per-extraction rank query must not be quadratic in the drain
    size, so the oracle is a Fenwick (binary-indexed) tree over the
    compressed key universe: O(log K) per query/removal. *)

type point = { stamp : int; value : int }

type rank_stats = {
  extractions : int;  (** successful extractions replayed *)
  empty_returns : int;  (** [None] returns (drain raced dry) *)
  unmatched : int;
      (** extracted values absent from the oracle — always 0 unless the
          structure invented or duplicated an element *)
  mean_error : float;
  max_error : int;
}

(** One (structure, thread count) cell's rank errors: a row of the
    mound-bench/1 [rank] section. *)
type row = { structure : string; threads : int; stats : rank_stats }

(* --- Fenwick tree over the compressed key universe ----------------- *)

module Fenwick = struct
  type t = { tree : int array; n : int }

  let create n = { tree = Array.make (n + 1) 0; n }

  (* add [d] at 1-based index [i] *)
  let add t i d =
    let i = ref i in
    while !i <= t.n do
      t.tree.(!i) <- t.tree.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* sum of indices [1..i] *)
  let prefix t i =
    let i = ref i and s = ref 0 in
    while !i > 0 do
      s := !s + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s
end

(* Binary search [v] in the sorted distinct-key array; the keys come
   from the populated multiset, so extracted values are present unless
   the structure invented one. *)
let find_key keys v =
  let lo = ref 0 and hi = ref (Array.length keys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if Array.length keys > 0 && keys.(!lo) = v then Some !lo else None

(** The multiset a drain has left, over the compressed key universe of
    its initial contents. [take o v] removes one copy of [v] and returns
    its rank error: how many remaining keys are strictly below it, which
    is also the index of its first occurrence in the sorted remainder. It
    returns [None], removing nothing, when no copy of [v] remains (the
    structure invented or duplicated it). O(log K) per call. *)
module Oracle = struct
  type t = { keys : int array; fw : Fenwick.t }

  let create init =
    let keys = Array.of_list (List.sort_uniq compare (Array.to_list init)) in
    let fw = Fenwick.create (Array.length keys) in
    Array.iter
      (fun v ->
        match find_key keys v with
        | Some i -> Fenwick.add fw (i + 1) 1
        | None -> assert false)
      init;
    { keys; fw }

  let take o v =
    match find_key o.keys v with
    | None -> None
    | Some i ->
        let below = Fenwick.prefix o.fw i in
        if Fenwick.prefix o.fw (i + 1) - below <= 0 then None
        else begin
          Fenwick.add o.fw (i + 1) (-1);
          Some below
        end
end

(** Replay a stamp-ordered extraction log against the oracle holding the
    [init] multiset. *)
let replay ~init (log : point list) =
  let oracle = Oracle.create init in
  let extractions = ref 0
  and unmatched = ref 0
  and sum = ref 0
  and max_e = ref 0 in
  List.iter
    (fun p ->
      match Oracle.take oracle p.value with
      | None -> incr unmatched
      | Some smaller ->
          incr extractions;
          sum := !sum + smaller;
          if smaller > !max_e then max_e := smaller)
    log;
  {
    extractions = !extractions;
    empty_returns = 0;
    unmatched = !unmatched;
    mean_error =
      (if !extractions = 0 then 0.
       else float_of_int !sum /. float_of_int !extractions);
    max_error = !max_e;
  }

(** One timed drain ({!Real_exp.timed_trial}): populate with
    [threads * ops_per_thread] keys, let every domain extract its share
    with timestamps, replay. The trial counts successful extractions. *)
let run_rank_trial ?(seed = 7L) ~threads ~ops_per_thread (maker : Pq.maker) =
  let n = threads * ops_per_thread in
  let q = maker.make ~capacity:n in
  let rng = Prng.create (Int64.add seed 17L) in
  let init = Array.init n (fun _ -> Prng.int rng Workload.key_range) in
  Array.iter q.Pq.insert init;
  let logs = Array.make threads [] in
  let empties = Array.make threads 0 in
  let trial =
    Real_exp.timed_trial ~threads (fun tid ->
        let log = ref [] and empty = ref 0 in
        for _ = 1 to ops_per_thread do
          match q.Pq.extract_min () with
          | Some v ->
              let stamp = Runtime.Real.monotonic_ns () in
              log := { stamp; value = v } :: !log
          | None -> incr empty
        done;
        (* program order restored: a thread's nanosecond stamps only
           grow, and the merge's stable sort orders equal stamps of two
           threads by thread id *)
        logs.(tid) <- List.rev !log;
        empties.(tid) <- !empty;
        ops_per_thread - !empty)
  in
  let merged =
    Array.to_list logs |> List.concat
    |> List.sort (fun a b -> compare a.stamp b.stamp)
  in
  let stats = replay ~init merged in
  (trial, { stats with empty_returns = Array.fold_left ( + ) 0 empties })

(** Warmup + measured trials for one (structure, thread count) cell: the
    cell's timing, and its rank stats aggregated across the measured
    trials (extraction counts and error sums add, the max is the max). *)
let run_rank_cell ?seed ?warmup ?trials ~threads ~ops_per_thread
    (maker : Pq.maker) =
  let cell, measured =
    Real_exp.run_cell ?seed ?warmup ?trials ~threads (fun ~seed ->
        run_rank_trial ~seed ~threads ~ops_per_thread maker)
  in
  let agg =
    List.fold_left
      (fun acc s ->
        {
          extractions = acc.extractions + s.extractions;
          empty_returns = acc.empty_returns + s.empty_returns;
          unmatched = acc.unmatched + s.unmatched;
          mean_error =
            acc.mean_error +. (s.mean_error *. float_of_int s.extractions);
          max_error = max acc.max_error s.max_error;
        })
      {
        extractions = 0;
        empty_returns = 0;
        unmatched = 0;
        mean_error = 0.;
        max_error = 0;
      }
      measured
  in
  let stats =
    {
      agg with
      mean_error =
        (if agg.extractions = 0 then 0.
         else agg.mean_error /. float_of_int agg.extractions);
    }
  in
  (cell, { structure = maker.name; threads; stats })

(** One structure's sweep: its timing series and its rank rows. *)
let run_rank_series ?seed ?warmup ?trials ~thread_counts ~ops_per_thread
    (maker : Pq.maker) =
  let cells =
    List.map
      (fun threads ->
        run_rank_cell ?seed ?warmup ?trials ~threads ~ops_per_thread maker)
      thread_counts
  in
  ( { Real_exp.structure = maker.name; cells = List.map fst cells },
    List.map snd cells )
