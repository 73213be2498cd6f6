(* The benchmark's metric declarations: name, unit, direction, and for
   end-to-end metrics the bound by which a change may worsen the parent's
   median before it counts as a regression. BENCHMARK.json declares the
   same; the smoke rule fails when the two drift apart. The README maps
   each per-layer metric to its layer and to the end-to-end metric and
   workloads it should move. *)

type better = Higher | Lower

type decl = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only; 0 for per-layer metrics *)
}

let structures = [ "seq"; "lf"; "lock"; "mq" ]
let better_name = function Higher -> "higher" | Lower -> "lower"
let d ?(bound = 0.) name unit better = { name; unit; better; bound }
let per x = List.map (fun s -> s ^ "." ^ x) structures

(* Throughput and latency get 0.25, the largest bound a BENCHMARK.json
   metric may carry, not 10%: over 10 seeds their run-to-run spread on a
   2-vCPU Xeon VM reached 15% (README, "Noise"), and a bound below the
   spread would reject reruns of an unchanged commit. *)
let end_to_end =
  List.map (fun n -> d n "1/s" Higher ~bound:0.25) (per "ops_per_s")
  @ List.map (fun n -> d n "us" Lower ~bound:0.25) (per "p99_us")
  @ List.map (fun n -> d n "B" Lower ~bound:0.05) (per "bytes_per_elem")
  @ [ d "setup_s" "s" Lower ~bound:0.25 ]

let per_layer =
  let queue x =
    let n s = x ^ "." ^ s in
    [
      d (n "call_ns.p50") "ns" Lower;
      d (n "call_ns.p99") "ns" Lower;
      d (n "words_per_op") "words" Lower;
      d (n "empty_extracts_per_kop") "1/kop" Lower;
      d (n "depth") "levels" Lower;
      d (n "pq_share") "share" Lower;
      d (n "trace_overhead") "ratio" Higher;
    ]
  in
  List.concat_map queue structures
  @ [
      d "lf.insert_retries_per_kop" "1/kop" Lower;
      d "lf.extract_retries_per_kop" "1/kop" Lower;
      d "lf.helps_per_kop" "1/kop" Lower;
      d "lf.root_fallbacks_per_kop" "1/kop" Lower;
      d "lock.lock_spins_per_op" "1/op" Lower;
      d "lock.livelock_near_misses" "count" Lower;
      d "mq.lock_spins_per_op" "1/op" Lower;
      d "mq.extract_retries_per_kop" "1/kop" Lower;
      d "mq.pops_per_vertex" "1/vertex" Lower;
      d "tree.find_insert_point_ns" "ns" Lower;
      d "tree.ge_calls_per_find" "calls" Lower;
      d "tree.get_at_ns" "ns" Lower;
      d "mcas.cas_ns" "ns" Lower;
      d "mcas.dcss_ns" "ns" Lower;
      d "mcas.dcss_words" "words" Lower;
      d "mcas.dcas_ns" "ns" Lower;
      d "mcas.dcas_words" "words" Lower;
      d "mcas.dcas_contended_ns" "ns" Lower;
      d "mcas.dcas_contended_success" "share" Higher;
      d "atomic.cas_ns" "ns" Lower;
      d "atomic.cas_contended_ns" "ns" Lower;
      d "prng.int_ns" "ns" Lower;
      d "prng.int_words" "words" Lower;
      d "gc.minor_per_mop" "1/Mop" Lower;
      d "gc.major_per_mop" "1/Mop" Lower;
      d "gc.minor_pause_share" "share" Lower;
      d "host.calib_ms" "ms" Lower;
    ]

let find name = List.find (fun m -> m.name = name) (end_to_end @ per_layer)

(* Check BENCHMARK.json against these declarations; the list of
   mismatches is empty when they agree. *)
let drift (spec : Harness.Bench_json.json) =
  let open Harness.Bench_json in
  let declared key =
    match member key spec with
    | Some (Arr l) ->
        List.map
          (fun m ->
            let s k = match member k m with Some (Str s) -> s | _ -> "?" in
            let bound = match member "bound" m with Some (Num b) -> b | _ -> 0. in
            (s "name", (s "unit", s "better", bound)))
          l
    | _ -> []
  in
  let ours l = List.map (fun m -> (m.name, (m.unit, better_name m.better, m.bound))) l in
  let diff what a b =
    List.filter_map
      (fun (n, v) ->
        match List.assoc_opt n b with
        | Some v' when v' = v -> None
        | Some _ -> Some (Printf.sprintf "%s %s: unit, direction or bound differ" what n)
        | None -> Some (Printf.sprintf "%s %s: missing on one side" what n))
      a
  in
  let check what key l =
    diff what (ours l) (declared key) @ diff what (declared key) (ours l)
  in
  List.sort_uniq compare (check "end_to_end" "end_to_end" end_to_end @ check "per_layer" "per_layer" per_layer)
