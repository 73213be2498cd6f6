(* Everything a trial feeds the queues, generated from the run's seed
   before any timing starts. The queues only ever see these keys or this
   graph; their own internal randomness is seeded separately. *)

let key_range = Harness.Workload.key_range

(* Independent streams for the different inputs of one run. *)
let stream seed k =
  let sm = Prng.Splitmix64.create seed in
  let s = ref 0L in
  for _ = 0 to k do
    s := Prng.Splitmix64.next sm
  done;
  Prng.create !s

let keys rng n = Array.init n (fun _ -> Prng.int rng key_range)

(* The mixed workload's operation script: a key to insert, or [extract]
   (an extract_min), each with probability 1/2. *)
let extract = -1

let script rng n =
  Array.init n (fun _ -> if Prng.bool rng then Prng.int rng key_range else extract)

(* --- SSSP -------------------------------------------------------------- *)

(* A random directed graph with a fixed out-degree, stored flat: the
   out-edges of [u] are slots [u*degree .. u*degree+degree-1]. *)
type graph = { vertices : int; degree : int; target : int array; weight : int array }

let graph rng ~vertices ~degree ~max_weight =
  let m = vertices * degree in
  let target = Array.make m 0 and weight = Array.make m 0 in
  for e = 0 to m - 1 do
    target.(e) <- Prng.int rng vertices;
    weight.(e) <- 1 + Prng.int rng max_weight
  done;
  { vertices; degree; target; weight }

(* Queue keys pack a tentative distance above a 20-bit vertex id, so an
   int priority queue orders them by distance. *)
let vertex_bits = 20
let vertex_mask = (1 lsl vertex_bits) - 1
let encode ~dist v = (dist lsl vertex_bits) lor v
let unreached = max_int

module Ref_heap = Baselines.Seq_heap.Make (Mound.Int_ord)

(* Sequential Dijkstra on the baseline binary heap: the oracle every
   parallel solve is checked against. *)
let reference g ~source =
  let dist = Array.make g.vertices unreached in
  let h = Ref_heap.create () in
  dist.(source) <- 0;
  Ref_heap.insert h (encode ~dist:0 source);
  let rec loop () =
    match Ref_heap.extract_min h with
    | None -> ()
    | Some key ->
        let du = key lsr vertex_bits and u = key land vertex_mask in
        if du = dist.(u) then
          for e = u * g.degree to ((u + 1) * g.degree) - 1 do
            let w = g.target.(e) and nd = du + g.weight.(e) in
            if nd < dist.(w) then begin
              dist.(w) <- nd;
              Ref_heap.insert h (encode ~dist:nd w)
            end
          done;
        loop ()
  in
  loop ();
  dist
