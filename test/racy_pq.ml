(* A deliberately broken toy priority queue, fixture for the checking
   tiers: the whole queue is one shared cell holding a sorted list, and
   both operations update it with a plain get-then-set instead of a CAS
   loop. Two consequences, each caught by a different tool:

   - the two [set]s of an interleaved pair of operations are unordered
     plain writes — the vector-clock race detector reports a write-write
     race on the cell;
   - an interleaved insert/insert or insert/extract loses one update, so
     the recorded history stops being linearizable (and usually breaks
     key conservation) — [Harness.Lin] must reject it.

   [make_cas] is the honest control: same structure, same footprint, but
   the read-modify-write is a CAS retry loop. It must survive both the
   race detector and the linearizability check. *)

module A = Sim.Runtime.Atomic

let rec insert_sorted v = function
  | [] -> [ v ]
  | x :: rest as l -> if v <= x then v :: l else x :: insert_sorted v rest

let pq_of ~insert ~extract_min cell =
  Harness.Pq.of_basic ~insert ~extract_min
    ~peek_min:(fun () -> List.nth_opt (A.get cell) 0)
    ~size:(fun () -> List.length (A.get cell))
    ~check:(fun () -> true)

let make_racy () : Harness.Pq.t =
  let cell = A.make [] in
  let insert v = A.set cell (insert_sorted v (A.get cell)) in
  let extract_min () =
    match A.get cell with
    | [] -> None
    | v :: rest ->
        A.set cell rest;
        Some v
  in
  pq_of ~insert ~extract_min cell

let make_cas () : Harness.Pq.t =
  let cell = A.make [] in
  let rec insert v =
    let cur = A.get cell in
    if not (A.compare_and_set cell cur (insert_sorted v cur)) then insert v
  in
  let rec extract_min () =
    match A.get cell with
    | [] -> None
    | v :: rest as cur ->
        if A.compare_and_set cell cur rest then Some v else extract_min ()
  in
  pq_of ~insert ~extract_min cell
