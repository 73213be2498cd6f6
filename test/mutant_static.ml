(* Deliberately broken sources seeded for the static-analysis tier.
   Each module plants one defect that the {!Analysis} lint, a
   dynamic tier, or both must catch; where a dynamic tier covers the
   defect class, a runnable program lets the static verdict be
   cross-checked against the DPOR / liveness verdict on the very same
   code:

   - [Lock_inverted_static]: the locking mound's hand-over-hand
     acquisition with the child locked before its parent, over the real
     [c]/[c / 2] index arithmetic. Every path still releases both
     locks and no static rule sees acquisition order; under the
     liveness checker the same code deadlocks against a correctly
     ordered peer (a fair no-write cycle), mirroring
     [Mutant_live.Lock_inverted].

   - [Post_publish_mutation]: an extraction that CASes the root record
     onto itself and then mutates its list field in place — the
     fresh-copy publication discipline of paper Listing 2 deleted. The
     publication analysis must flag both halves (re-publishing a shared
     read, then writing through it); under DPOR the two-extract
     interleaving double-delivers the minimum, breaking
     linearizability.

   - [Aliased_helper_dropped]: an extraction retry loop that binds the
     helper under another name ([let restore = moundify]) and never
     calls it. A rule recognizing help by name would see "moundify" in
     the item and stay silent; [static-retry] works on the call graph
     and must flag the loop. [Aliased_helper_kept] is the
     negative twin — same alias, actually invoked — that must stay
     clean. The dynamic analog (helping deleted means the victim's
     obstruction is never cleared) is [Mutant_live.No_help].

   - [Unstamped_publish]: Tree.expand's publish loop with the version
     stamp deleted — the CAS compares the bare pointer read at the top
     of the loop while [retire] recycles the slot concurrently. The
     aba-risk analysis must flag the CAS; [Stamped_publish] is the
     negative twin with the paper's seq discipline restored.

   - [Lost_update]: a sorted-list "priority queue" whose insert and
     extract are get-compute-set — the atomicity analysis must flag
     both plain sets; under DPOR two extractions double-deliver the
     minimum, breaking linearizability (the dynamic cross-check).

   - [Counter_drift]: the same defect on a bare counter ([bump] reads,
     adds one, plain-sets); [bump_atomic] is the negative twin using
     the primitive RMW.

   - [Unpadded_top_row]: a top-row cache record whose two hot mutable
     words sit adjacent with the pad block deleted, touched by two
     RMW-performing operations — the layout analysis must flag the
     record; the padded twin in the same module must stay clean.

   - [Published_record_write]: a record boxed into an atomic cell whose
     mutable field is then bumped in place through a plain field write —
     the publication analysis must flag the write through the shared
     read as a post-publish mutation.

   - [spawn_counter_program]: per-domain counter slots collapsed into
     one shared cell that every thread bumps with a plain get-then-set,
     on a tracked sim cell; the DPOR race oracle must report the
     unordered write pair.

   This file is scanned as source by [test_analysis] (a declared dep of
   the test stanza); it must stay outside [lib/] so the shipped-tree
   lint stays clean. *)

module Lock_inverted_static = struct
  module R = Sim.Runtime

  type lnode = { locked : bool; owner : int }
  type t = { slots : lnode R.Atomic.t array }

  let create n =
    { slots = Array.init n (fun _ -> R.Atomic.make { locked = false; owner = -1 }) }

  let get_at t i = t.slots.(i)

  (* Faithful copies of the locking mound's primitives: the spin backs
     off, so helping-discipline stays quiet and the only defect is the
     acquisition order below. *)
  let set_lock slot =
    let rec spin () =
      let cur = R.Atomic.get slot in
      if cur.locked then begin
        R.cpu_relax ();
        spin ()
      end
      else if not (R.Atomic.compare_and_set slot cur { locked = true; owner = 0 })
      then spin ()
    in
    spin ()

  let unlock slot =
    let cur = R.Atomic.get slot in
    R.Atomic.set slot { cur with locked = false }

  (* THE MUTATION: upstream locks parent before child (ancestor order);
     here the child [c] is locked first, then its parent [c / 2]. *)
  let insert_inverted t c =
    let cslot = get_at t c in
    let pslot = get_at t (c / 2) in
    set_lock cslot;
    set_lock pslot;
    unlock pslot;
    unlock cslot

  (* The correct order: ancestor before descendant, the deadlock
     partner. *)
  let extract_ordered t c =
    let pslot = get_at t (c / 2) in
    let cslot = get_at t c in
    set_lock pslot;
    set_lock cslot;
    unlock cslot;
    unlock pslot
end

module Post_publish_mutation = struct
  module R = Sim.Runtime

  type mnode = { mutable list : int list; seq : int }
  type t = { root : mnode R.Atomic.t }

  let create () = { root = R.Atomic.make { list = []; seq = 0 } }

  (* Insert publishes a fresh record and backs off on contention —
     correct on both analysis dimensions, and the in-file negative. *)
  let rec insert t v =
    let cur = R.Atomic.get t.root in
    if
      not
        (R.Atomic.compare_and_set t.root cur
           { list = v :: cur.list; seq = cur.seq + 1 })
    then begin
      R.cpu_relax ();
      insert t v
    end

  (* THE MUTATION: the CAS re-installs the very record it read (a
     no-op "lock" by physical equality), then edits it in place. Two
     extractions that read the same root both pass the CAS and both
     deliver the old head. *)
  let rec extract_min t =
    let root = R.Atomic.get t.root in
    match root.list with
    | [] -> None
    | hd :: tl ->
        if R.Atomic.compare_and_set t.root root root then begin
          root.list <- tl;
          Some hd
        end
        else begin
          R.cpu_relax ();
          extract_min t
        end

  let peek_min t = List.nth_opt (R.Atomic.get t.root).list 0
  let size t = List.length (R.Atomic.get t.root).list

  let check t =
    let rec sorted = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> a <= b && sorted rest
    in
    sorted (R.Atomic.get t.root).list
end

module Aliased_helper_dropped = struct
  module R = Sim.Runtime
  module M = Mcas.Make (R.Atomic)

  type _ M.state += Node of { list : int list; dirty : bool; seq : int }

  let moundify slot =
    match M.Cell.get slot with
    | Node { list; seq; _ } as cur ->
        ignore
          (M.Cell.cas slot cur (Node { list; dirty = false; seq = seq + 1 }))
    | _ -> assert false

  (* THE MUTATION: the helper is aliased — a rule matching names would
     see the substring "moundify" in the loop's item and stay silent —
     but [restore] is never called, so the retry loop neither helps nor
     backs off. *)
  let rec extract_spin t slot =
    let restore = moundify in
    ignore restore;
    match M.Cell.get slot with
    | Node { list = []; _ } -> None
    | Node { list = hd :: tl; dirty; seq } as cur ->
        if M.Cell.cas slot cur (Node { list = tl; dirty; seq = seq + 1 }) then
          Some hd
        else extract_spin t slot
    | _ -> assert false

  (* The negative twin: the same alias, actually invoked on failure.
     The call graph resolves [restore] to [moundify], whose completing
     CAS counts as helping — no finding. *)
  let rec extract_helping t slot =
    let restore = moundify in
    match M.Cell.get slot with
    | Node { list = []; _ } -> None
    | Node { list = hd :: tl; dirty; seq } as cur ->
        if M.Cell.cas slot cur (Node { list = tl; dirty; seq = seq + 1 }) then
          Some hd
        else begin
          restore slot;
          extract_helping t slot
        end
    | _ -> assert false
end

module Unstamped_publish = struct
  module R = Sim.Runtime

  type row = { cells : int array }
  type t = { slot : row option R.Atomic.t }

  let create () = { slot = R.Atomic.make None }

  (* THE MUTATION: the expand-style publish loop with the version stamp
     deleted. The CAS compares the bare option read at the top of the
     loop — no counter folded into the fresh value, no dirty/seq
     re-validation between the read and the CAS — while [retire] below
     recycles the slot concurrently. A retire + republish between the
     read and the CAS restores the compared value and the CAS installs
     over a row it never observed. *)
  let rec publish t fresh =
    let cur = R.Atomic.get t.slot in
    match cur with
    | Some _ -> ()
    | None ->
        if not (R.Atomic.compare_and_set t.slot cur (Some fresh)) then begin
          R.cpu_relax ();
          publish t fresh
        end

  (* The recycler that makes the slot ABA-prone. *)
  let retire t = R.Atomic.set t.slot None

  let width t =
    match R.Atomic.get t.slot with
    | None -> 0
    | Some r -> Array.length r.cells
end

module Stamped_publish = struct
  module R = Sim.Runtime

  type row = { cells : int array }
  type vrow = { row : row option; ver : int }
  type t = { slot : vrow R.Atomic.t }

  let create () = { slot = R.Atomic.make { row = None; ver = 0 } }

  (* The negative twin: the same loop, but the compared record folds a
     bumped version counter into the fresh value — the paper's seq
     discipline. Re-publication after a retire cannot restore the
     compared value, so the stale CAS fails; aba-risk must stay
     silent. *)
  let rec publish t fresh =
    let cur = R.Atomic.get t.slot in
    match cur.row with
    | Some _ -> ()
    | None ->
        if
          not
            (R.Atomic.compare_and_set t.slot cur
               { row = Some fresh; ver = cur.ver + 1 })
        then begin
          R.cpu_relax ();
          publish t fresh
        end

  (* At-most-once retire: a lost race means someone else already moved
     the slot on, so there is nothing left to retire. *)
  let retire t =
    let cur = R.Atomic.get t.slot in
    if
      not
        (R.Atomic.compare_and_set t.slot cur
           { row = None; ver = cur.ver + 1 })
    then ()

  let width t =
    match (R.Atomic.get t.slot).row with
    | None -> 0
    | Some r -> Array.length r.cells
end

module Lost_update = struct
  module R = Sim.Runtime

  type t = { cell : int list R.Atomic.t }

  let create () = { cell = R.Atomic.make [] }

  let rec ins v = function
    | [] -> [ v ]
    | hd :: tl -> if v <= hd then v :: hd :: tl else hd :: ins v tl

  (* THE MUTATION: get-compute-set. The sorted insert is computed from
     the read and stored with a plain set — a concurrent update landing
     between the two is silently erased. The atomicity analysis must
     flag both sites; DPOR confirms the defect dynamically (two
     extractions of the same minimum). *)
  let insert t v =
    let cur = R.Atomic.get t.cell in
    R.Atomic.set t.cell (ins v cur)

  let extract_min t =
    match R.Atomic.get t.cell with
    | [] -> None
    | hd :: tl ->
        R.Atomic.set t.cell tl;
        Some hd

  let peek_min t = List.nth_opt (R.Atomic.get t.cell) 0
  let size t = List.length (R.Atomic.get t.cell)

  let check t =
    let rec sorted = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> a <= b && sorted rest
    in
    sorted (R.Atomic.get t.cell)
end

module Counter_drift = struct
  module R = Sim.Runtime

  type t = { hits : int R.Atomic.t }

  let create () = { hits = R.Atomic.make 0 }

  (* THE MUTATION: the same lost-update shape on a bare counter —
     concurrent bumps collapse into one. *)
  let bump t =
    let n = R.Atomic.get t.hits in
    R.Atomic.set t.hits (n + 1)

  (* The negative twin: the primitive RMW linearizes the increment and
     must stay clean. *)
  let bump_atomic t = ignore (R.Atomic.fetch_and_add t.hits 1)

  let read t = R.Atomic.get t.hits
end

module Unpadded_top_row = struct
  module R = Sim.Runtime

  (* THE MUTATION: a top-row cache with its pad block deleted — the
     two hot words share a cache line and two RMW-performing
     operations ping-pong it between cores. The layout analysis must
     flag this record, anchored at the first field of the pair. *)
  type top = { mutable top_val : int; mutable top_ver : int }

  (* The negative twin: the same shape with the pad block restored
     (Tree's pads idiom) — adjacency broken, no finding. *)
  type top_padded = {
    mutable pv : int;
    pad : int array;
    mutable pver : int;
  }

  type t = { top : top; shadow : top_padded; word : int R.Atomic.t }

  let create () =
    {
      top = { top_val = max_int; top_ver = 0 };
      shadow = { pv = max_int; pad = Array.make 7 0; pver = 0 };
      word = R.Atomic.make 0;
    }

  let publish t v =
    ignore (R.Atomic.fetch_and_add t.word 1);
    t.top.top_val <- v;
    t.top.top_ver <- t.top.top_ver + 1;
    t.shadow.pv <- v;
    t.shadow.pver <- t.shadow.pver + 1

  let retire t =
    ignore (R.Atomic.fetch_and_add t.word 1);
    t.top.top_ver <- t.top.top_ver + 1;
    t.shadow.pver <- t.shadow.pver + 1

  let top_val t = t.top.top_val
  let pad_live t = Array.length t.shadow.pad
end

module Published_record_write = struct
  module R = Sim.Runtime

  type slab = { mutable used : int; cap : int }

  let create () = R.Atomic.make { used = 0; cap = 8 }

  (* THE MUTATION: the record travels through the atomic cell, but the
     claim bumps its mutable field in place — a plain write through a
     record other threads can read from the same cell. *)
  let claim cell =
    let s = R.Atomic.get cell in
    if s.used < s.cap then begin
      s.used <- s.used + 1;
      true
    end
    else false
end

(* ---- dynamic cross-checks over the mutants ----------------------------- *)

(** Two threads on adjacent tree slots, opposite acquisition orders:
    each holds one lock and spins reading the other — the liveness
    checker must confirm a fair no-write cycle (a deadlock), the same
    verdict class as [Mutant_live.lock_inverted_program]. *)
let lock_inverted_static_program : Liveness.program =
  let prepare () =
    Sim.Sched.seed_ambient 11L;
    let t = Lock_inverted_static.create 4 in
    let ops_done = Array.make 2 0 in
    let bodies =
      [|
        (fun _ ->
          Lock_inverted_static.insert_inverted t 2;
          ops_done.(0) <- 1);
        (fun _ ->
          Lock_inverted_static.extract_ordered t 2;
          ops_done.(1) <- 1);
      |]
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  { Liveness.name = "mutant-lock-inverted-static"; prepare }

(** A [Harness.Pq.t] over the publication mutant, for
    {!Harness.Dpor_exp.pq_program}'s two-extract probe. *)
let post_publish_pq () =
  let module P = Post_publish_mutation in
  let q = P.create () in
  Harness.Pq.of_basic ~insert:(P.insert q)
    ~extract_min:(fun () -> P.extract_min q)
    ~peek_min:(fun () -> P.peek_min q)
    ~size:(fun () -> P.size q)
    ~check:(fun () -> P.check q)

(** A [Harness.Pq.t] over the lost-update mutant, for
    {!Harness.Dpor_exp.pq_program}'s two-extract probe: both
    extractions read the same head before either plain set lands, and
    the minimum is delivered twice. *)
let lost_update_pq () =
  let module P = Lost_update in
  let q = P.create () in
  Harness.Pq.of_basic ~insert:(P.insert q)
    ~extract_min:(fun () -> P.extract_min q)
    ~peek_min:(fun () -> P.peek_min q)
    ~size:(fun () -> P.size q)
    ~check:(fun () -> P.check q)

(** The spawn-counter defect on a tracked sim cell, for the DPOR
    race oracle: two threads bump the same slot with a plain
    get-then-set. The explorer must report the unordered write pair
    (real arrays are invisible to the sim explorer, so the collapsed
    slot is expressed as a tracked cell). *)
let spawn_counter_program : Check.program =
  {
    Check.name = "mutant-spawn-counter-race";
    prepare =
      (fun () ->
        let module A = Sim.Runtime.Atomic in
        let tally = A.make 0 in
        {
          Check.bodies =
            Array.make 2 (fun _ -> A.set tally (A.get tally + 1));
          verdict =
            (fun () ->
              if A.get tally = 2 then None
              else Some (Printf.sprintf "lost bump: %d" (A.get tally)));
        });
  }
