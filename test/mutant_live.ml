(* Deliberately broken structures seeded for the progress tier. Each
   deletes one liveness ingredient the clean tree depends on, so the
   checker and the helping lint have known-bad inputs to catch:

   - [No_help]: extract_min spins on a dirty root instead of restoring
     it, and the winning extractor skips restoration too — the paper's
     L24–L26 replaced by a bare retry. Once any extraction wins, the
     root is dirty forever and every later extraction spins: the
     liveness checker must confirm a non-progress cycle, and the lint
     must flag the bare retry ([static-retry]).

   - [No_backoff]: a lock-free CAS insert with the exponential backoff
     deleted. Still lock-free — certification stays green — but the
     [static-retry] lint must flag it: the point of that rule is
     exactly that progress and contention behavior are separate claims.

   - [Lock_inverted]: the locking mound's hand-over-hand acquisition
     with the parent/child order flipped on one side (upstream locks
     parent before child, F45–F46 of the paper's listing), distilled to
     the two slots involved. Under a fair schedule each thread holds
     one lock and spins reading the other: the checker must confirm a
     fair cycle with no writes in the pump — a deadlock.

   This file is scanned by [test_progress] with {!Analysis.scan_file}
   as the lint's acceptance fixture; it must stay outside [lib/] so the
   shipped-tree lint stays clean. *)

module No_help = struct
  module R = Sim.Runtime
  module M = Mcas.Make (R.Atomic)
  module T = Mound.Tree.Make (R)

  type _ M.state += Node of { list : int list; dirty : bool; seq : int }
  type t = { tree : unit M.Cell.t T.t }

  let create () =
    let make_slot () =
      M.Cell.make (Node { list = []; dirty = false; seq = 0 })
    in
    { tree = T.create make_slot }

  (* Root-only insert: just enough to seed the mutant before the race.
     The list is kept in sorted order by inserting descending values. *)
  let rec insert t v =
    let slot = T.get t.tree 1 in
    match M.Cell.get slot with
    | Node { list; dirty; seq } as cur ->
        let fresh = Node { list = v :: list; dirty; seq = seq + 1 } in
        if not (M.Cell.cas slot cur fresh) then insert t v
    | _ -> assert false

  (* THE MUTATION: a dirty root is spun on, never restored, and the
     winner leaves it dirty. *)
  let rec extract_min t =
    let slot = T.get t.tree 1 in
    match M.Cell.get slot with
    | Node { dirty = true; _ } -> extract_min t
    | Node { list = []; _ } -> None
    | Node { list = hd :: tl; seq; _ } as root ->
        if
          M.Cell.cas slot root (Node { list = tl; dirty = true; seq = seq + 1 })
        then Some hd
        else extract_min t
    | _ -> assert false
end

module No_backoff = struct
  module R = Sim.Runtime
  module M = Mcas.Make (R.Atomic)

  type _ M.state += List of int list
  type t = unit M.Cell.t

  let create () : t = M.Cell.make (List [])

  (* Upstream's insert retry runs [B.exponential] between attempts;
     deleted here. *)
  let rec insert (c : t) v =
    match M.Cell.get c with
    | List l as cur -> if not (M.Cell.cas c cur (List (v :: l))) then insert c v
    | _ -> assert false
end

module Lock_inverted = struct
  module R = Sim.Runtime

  type t = { parent : bool R.Atomic.t; child : bool R.Atomic.t }

  let create () =
    { parent = R.Atomic.make false; child = R.Atomic.make false }

  (* Test-and-test-and-set with no backoff: the pure read spin is what
     the checker's no-write fair cycle classifies as a deadlock. *)
  let rec lock slot =
    if R.Atomic.get slot then lock slot
    else if not (R.Atomic.compare_and_set slot false true) then lock slot

  let unlock slot = R.Atomic.set slot false

  let insert_inverted t =
    lock t.child;
    lock t.parent;
    unlock t.parent;
    unlock t.child

  let extract t =
    lock t.parent;
    lock t.child;
    unlock t.child;
    unlock t.parent
end

(* ---- liveness programs over the mutants -------------------------------- *)

let no_help_program : Liveness.program =
  let prepare () =
    Sim.Sched.seed_ambient 11L;
    let q = No_help.create () in
    No_help.insert q 2;
    No_help.insert q 1;
    let ops_done = Array.make 2 0 in
    let bodies =
      [|
        (fun _ ->
          ignore (No_help.extract_min q);
          ops_done.(0) <- 1);
        (fun _ ->
          ignore (No_help.extract_min q);
          ops_done.(1) <- 1);
      |]
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  { Liveness.name = "mutant-no-help"; prepare }

let no_backoff_program : Liveness.program =
  let prepare () =
    Sim.Sched.seed_ambient 11L;
    let c = No_backoff.create () in
    let ops_done = Array.make 2 0 in
    let bodies =
      [|
        (fun _ ->
          No_backoff.insert c 1;
          ops_done.(0) <- 1);
        (fun _ ->
          No_backoff.insert c 2;
          ops_done.(1) <- 1);
      |]
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  { Liveness.name = "mutant-no-backoff"; prepare }

let lock_inverted_program : Liveness.program =
  let prepare () =
    Sim.Sched.seed_ambient 11L;
    let t = Lock_inverted.create () in
    let ops_done = Array.make 2 0 in
    let bodies =
      [|
        (fun _ ->
          Lock_inverted.insert_inverted t;
          ops_done.(0) <- 1);
        (fun _ ->
          Lock_inverted.extract t;
          ops_done.(1) <- 1);
      |]
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  { Liveness.name = "mutant-lock-inverted"; prepare }
