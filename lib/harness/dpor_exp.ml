(** The DPOR program catalog: small fixed concurrent programs over the
    repo's structures, shaped for exhaustive exploration by
    {!Check.explore} — 2–3 threads, 3–6 operations total.

    Each priority-queue program records per-thread histories with
    {!Lin.recorder} (timestamped by {!Sim.Sched.events}, the clock that
    stays consistent with execution order under the explorer's policies)
    and checks, after every complete execution: the structure's own
    quiescent invariant, key conservation (prepopulated ∪ inserted =
    extracted ∪ drained as multisets), and — for structures that claim
    it — linearizability of the recorded history. The quiescently
    consistent skip list gets the conservation oracle only.

    Shared by [test_dpor] and the [repro dpor] subcommand. *)

type script =
  [ `Insert of int
  | `Insert_many of int list
  | `Extract
  | `Extract_many
  | `Extract_approx ]
  list

(** Build a {!Check.program} over any priority queue. [lin:false]
    downgrades the oracle to invariant + conservation (for quiescently
    consistent structures); [rank] (default 1 = exact) relaxes the
    linearizability oracle to rank-[k] semantics for relaxed queues —
    extractions may return any of the top-[rank] keys, while emptiness
    and conservation stay exact. *)
let pq_program ~name ~(make : unit -> Pq.t) ?(prepopulate = [])
    ~(lin : bool) ?(rank = 1) (scripts : script list) : Check.program =
  let prepare () =
    (* Construction and prepopulation run outside the simulation, on the
       ambient generator; reseeding it pins the initial structure (e.g.
       which leaf a randomized mound insert probes), so every
       re-execution starts from an identical state — the explorer's
       replayed prefixes depend on it. *)
    Sim.Sched.seed_ambient 11L;
    let q = make () in
    List.iter q.insert prepopulate;
    let recorded =
      List.map (fun s -> Lin.recorder ~now:Sim.Sched.events q s) scripts
    in
    let bodies =
      Array.of_list (List.map (fun (body, _) _tid -> body ()) recorded)
    in
    let verdict () =
      let events = List.concat_map (fun (_, collect) -> collect ()) recorded in
      if not (q.check ()) then Some "quiescent invariant violated"
      else begin
        let inserted =
          prepopulate
          @ List.concat_map
              (List.concat_map (function
                | `Insert v -> [ v ]
                | `Insert_many b -> b
                | _ -> []))
              scripts
        in
        let extracted =
          List.concat_map
            (function
              | { Lin.op = Ext (Some v); _ } -> [ v ]
              | { Lin.op = Ext_many l; _ } -> l
              | _ -> [])
            events
        in
        let rec drain acc =
          match q.extract_min () with
          | Some v -> drain (v :: acc)
          | None -> acc
        in
        let drained = drain [] in
        if
          List.sort compare (extracted @ drained)
          <> List.sort compare inserted
        then Some "key conservation violated"
        else if lin && not (Lin.check ~init:prepopulate ~rank events) then
          Some
            (if rank = 1 then "history not linearizable"
             else
               Printf.sprintf "history not rank-%d relaxed-linearizable" rank)
        else None
      end
    in
    { Check.bodies; verdict }
  in
  { Check.name; prepare }

(* A program over one maker's structure, prepopulated with the middle
   key 2; the history must linearize when the maker claims the exact
   spec. *)
let maker_program ~name (maker : Pq.maker) scripts =
  pq_program ~name
    ~make:(fun () -> maker.make ~capacity:64)
    ~prepopulate:[ 2 ] ~lin:maker.linearizable scripts

(* The standard shape: one thread racing insert-then-extract against a
   second thread's insert. Small enough to explore exhaustively on every
   structure, adversarial enough to exercise insert/extract and
   extract/extract conflicts. *)
let standard ~name maker =
  maker_program ~name maker [ [ `Insert 1; `Extract ]; [ `Insert 3 ] ]

(* CASN helping: two threads issue overlapping double-word CASNs from
   the same initial state, both naming the cells in allocation order.
   Exactly one must win, and both cells must agree afterwards — a torn
   CASN or lost help shows up as mixed values or two winners. *)
let mcas_program : Check.program =
  let prepare () =
    let open Sim_mcas in
    let zero = Int 0 and one = Int 1 and two = Int 2 in
    let a = Cell.make zero and b = Cell.make zero in
    let won = Array.make 2 false in
    let bodies =
      [|
        (fun _ ->
          won.(0) <- Cell.casn [| (a, zero, one); (b, zero, one) |]);
        (fun _ ->
          won.(1) <- Cell.casn [| (a, zero, two); (b, zero, two) |]);
      |]
    in
    let verdict () =
      let va = to_int (Cell.get a)
      and vb = to_int (Cell.get b) in
      if va <> vb then
        Some (Printf.sprintf "torn casn: a=%d b=%d" va vb)
      else
        match (won.(0), won.(1), va) with
        | true, false, 1 | false, true, 2 -> None
        | false, false, _ -> Some "both casns failed from initial state"
        | true, true, _ -> Some "both casns claim success"
        | _, _, v ->
            Some (Printf.sprintf "winner/value mismatch: value %d" v)
    in
    { Check.bodies; verdict }
  in
  { Check.name = "mcas"; prepare }

(* The two-leg shapes the lock-free mound runs: an insert-shaped [dcss]
   (parent is the identity leg, child is written) racing a
   moundify-shaped [dcas] that rewrites both, from the same initial
   state. The parent cell is allocated first and named first, as the
   tree allocates rows top-down. Exactly one must win: the dcss leaves
   (0, 1), the dcas leaves (2, 2); a torn write, a lost help or two
   winners shows up as any other outcome. *)
let mcas_dcss_dcas_program : Check.program =
  let prepare () =
    let open Sim_mcas in
    let zero = Int 0 and one = Int 1 and two = Int 2 in
    let parent = Cell.make zero in
    let child = Cell.make zero in
    let won = Array.make 2 false in
    let bodies =
      [|
        (fun _ -> won.(0) <- Cell.dcss parent zero child zero one);
        (fun _ ->
          won.(1) <- Cell.dcas parent zero two child zero two);
      |]
    in
    let verdict () =
      let vp = to_int (Cell.get parent)
      and vc = to_int (Cell.get child) in
      match (won.(0), won.(1), vp, vc) with
      | true, false, 0, 1 | false, true, 2, 2 -> None
      | false, false, _, _ ->
          Some "dcss and dcas both failed from initial state"
      | true, true, _, _ -> Some "dcss and dcas both claim success"
      | _ ->
          Some
            (Printf.sprintf "torn or mismatched: parent=%d child=%d" vp vc)
    in
    { Check.bodies; verdict }
  in
  { Check.name = "mcas-dcss-dcas"; prepare }

(* extract-many racing an insert: the root CAS (lock-free) or root lock
   (locking) conflicts with the insert's validation; the Ext_many history
   entry exercises the checker's whole-list linearization rule. *)
let many ~name maker =
  maker_program ~name maker [ [ `Insert 1; `Extract_many ]; [ `Insert 3 ] ]

(* Batched insert racing a plain insert, followed by the inserting
   thread's own extract. [insert_many] splices one node prefix per
   CAS/lock pair, so it is only atomic as a whole when no concurrent
   extract can observe the gap between splices; here the sole extract is
   program-ordered after the batch completes, which makes the atomic
   [Lin.Ins_many] spec sound while still exploring every interleaving of
   the splices with the racing insert's validation. *)
let batch ~name maker =
  maker_program ~name maker
    [ [ `Insert_many [ 1; 4 ]; `Extract ]; [ `Insert 3 ] ]

(* Batch/extract-many round trip with an extract racing the batch. The
   batch [1; 1] is bounded by the prepopulated root key 2, so the whole
   batch lands in a single splice (one CAS / one lock pair) — genuinely
   atomic, so the racing extract cannot observe a partial batch and the
   atomic spec is exact. *)
let batch_roundtrip ~name maker =
  maker_program ~name maker
    [ [ `Insert_many [ 1; 1 ]; `Extract_many ]; [ `Extract ] ]

(* extract-approx probes a random shallow node, so its return value is
   only quiescently meaningful — conservation oracle only (lin:false). *)
let approx ~name (maker : Pq.maker) =
  pq_program ~name
    ~make:(fun () -> maker.make ~capacity:64)
    ~prepopulate:[ 2 ] ~lin:false
    [ [ `Insert 1; `Extract_approx ]; [ `Insert 3 ] ]

(* Relaxed MultiQueue entries. Every [extract_min] returns the exact
   minimum of some inner queue, so the keys it may skip are exactly the
   keys residing in the other queues — with these tiny key sets the
   worst placement leaves at most 3 smaller keys elsewhere, hence
   [rank:4]. Emptiness and conservation stay exact (the relaxed spec
   never excuses a lost, invented or spurious-empty answer), so DPOR
   certifies the versioned try-locks, the two-choice protocol and, in
   [multiqueue-empty], the emptiness certificate. [stickiness:8]
   exceeds each thread's op count: the queue choice is one ambient draw
   per thread, keeping re-executions pinned by [seed_ambient] just like
   the mounds' randomized insert probes. *)
let mq_make () =
  (Pq.On_sim.multiqueue ~queues:2 ~stickiness:8 ~domains:2 ()).make
    ~capacity:64

(* The standard shape on the relaxed front-end. *)
let mq_standard =
  pq_program ~name:"multiqueue" ~make:mq_make ~prepopulate:[ 2 ] ~lin:true
    ~rank:4
    [ [ `Insert 1; `Extract ]; [ `Insert 3 ] ]

(* Two domains racing two-choice delete-min on a prepopulated queue:
   both sample the cached tops, both may try-lock the same best queue,
   and the loser must fail over — the adversarial shape for the
   lock/top/size protocol. *)
let mq_race =
  pq_program ~name:"multiqueue-race" ~make:mq_make ~prepopulate:[ 1; 2; 3 ]
    ~lin:true ~rank:4
    [ [ `Extract ]; [ `Extract ] ]

(* The emptiness certificate under fire. The extractor's first take
   can hold the keys' queue while the scanner fails over and starts its
   collect; the inserter then lands 9 in the other queue, and the
   extractor's second take (invoked after the insert returned) empties
   the first queue before the scanner reads it. A lone collect, or a
   release that restores the pre-acquire word, then answers [None]
   although 9 was inserted before 3 left: no linearization has an empty
   instant. With one key and one operation per thread every such miss
   overlaps all three calls and stays linearizable, hence the second
   key and the second take. *)
let mq_empty =
  pq_program ~name:"multiqueue-empty" ~make:mq_make ~prepopulate:[ 1; 3 ]
    ~lin:true ~rank:4
    [ [ `Extract; `Extract ]; [ `Insert 9 ]; [ `Extract ] ]

let catalog : (string * Check.program) list =
  [
    ("lf-mound", standard ~name:"lf-mound" Pq.On_sim.mound_lf);
    ("lock-mound", standard ~name:"lock-mound" Pq.On_sim.mound_lock);
    ("lf-mound-many", many ~name:"lf-mound-many" Pq.On_sim.mound_lf);
    ("lock-mound-many", many ~name:"lock-mound-many" Pq.On_sim.mound_lock);
    ("lf-mound-batch", batch ~name:"lf-mound-batch" Pq.On_sim.mound_lf);
    ("lock-mound-batch", batch ~name:"lock-mound-batch" Pq.On_sim.mound_lock);
    ( "lf-mound-batch-rt",
      batch_roundtrip ~name:"lf-mound-batch-rt" Pq.On_sim.mound_lf );
    ("lf-mound-approx", approx ~name:"lf-mound-approx" Pq.On_sim.mound_lf);
    ("multiqueue", mq_standard);
    ("multiqueue-race", mq_race);
    ("multiqueue-empty", mq_empty);
    ("stm-heap", standard ~name:"stm-heap" Pq.On_sim.stm_heap);
    ("skiplist", standard ~name:"skiplist" Pq.On_sim.skiplist);
    ("mcas", mcas_program);
    ("mcas-dcss-dcas", mcas_dcss_dcas_program);
  ]

let find name = List.assoc_opt name catalog
let names () = List.map fst catalog
