(** Lock-free mound (paper §III, Listing 2).

    Each tree node is an {!Mcas} location holding an immutable record
    [{list; dirty; seq}] — the paper's ⟨list, dirty, c⟩ triple. A single
    [Mcas.get] is the paper's atomic READ; publishing a fresh record per
    update gives the counter-stamped-CAS semantics of the paper (we keep
    the [seq] counter for fidelity and diagnostics, but in OCaml physical
    equality on the fresh record already rules out ABA).

    - [insert] finds a candidate with randomized leaf probing + binary
      search (O(log log N) reads), re-validates the candidate and its
      parent, and linearizes with a single CAS (at the root) or DCSS
      (elsewhere) — L4–L15.
    - [extract_min] linearizes with a CAS that removes the root list's
      head and sets the root dirty, then restores the mound property with
      [moundify] — L22–L32.
    - [moundify] fixes one parent/children triangle at a time with a DCAS
      list swap, helping any dirty child first; concurrent operations that
      meet the same dirty node help each other — L33–L58.

    Progress: every loop iteration that fails does so because some CAS,
    DCSS or DCAS by another thread succeeded, and the {!Mcas} operations
    are themselves lock-free, so the structure is lock-free. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module M = Mcas.Make (R.Atomic)
  module T = Tree.Make (R)
  module B = Runtime.Backoff.Make (R)

  type elt = Ord.t

  type mnode = { list : elt list; dirty : bool; seq : int }

  type t = { tree : mnode M.loc T.t; ops : Stats.Ops.t }

  let node_value n = Intf.Sorted.value n.list

  let head_compare a b = Intf.Sorted.head_compare Ord.compare a b

  let create ?threshold ?init_depth () =
    let make_slot () = M.make { list = []; dirty = false; seq = 0 } in
    { tree = T.create ?threshold ?init_depth make_slot; ops = Stats.Ops.create () }

  (** Retry / helping / backoff counters since creation. Exact and
      deterministic under the simulator; racy (diagnostic) on real
      domains. *)
  let ops t = t.ops

  let depth t = T.depth t.tree

  let read t i = M.get (T.get t.tree i)

  (* ----- moundify: restore the mound property at a dirty node ----- *)

  (* [level] must be ⌊log₂ n⌋: the traversal always knows it (the root
     is level 0, children are one deeper), so node slots are fetched
     with [get_at] instead of recomputing the level on every access. *)
  let rec moundify t n ~level =
    let slot = T.get_at t.tree ~level n in
    let node = M.get slot in
    let d = T.depth t.tree in
    if not node.dirty then () (* helped by someone else — L36 *)
    else if T.is_leaf n ~depth:d then begin
      (* L37–L39: a leaf trivially satisfies the property. *)
      if
        M.cas slot node { list = node.list; dirty = false; seq = node.seq + 1 }
      then ()
      else moundify t n ~level
    end
    else begin
      let lslot = T.get_at t.tree ~level:(level + 1) (2 * n)
      and rslot = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let left = M.get lslot in
      let right = M.get rslot in
      if left.dirty then begin
        (* dirtied by another operation: helping (L41–L44) *)
        t.ops.helps <- t.ops.helps + 1;
        moundify t (2 * n) ~level:(level + 1);
        moundify t n ~level
      end
      else if right.dirty then begin
        t.ops.helps <- t.ops.helps + 1;
        moundify t ((2 * n) + 1) ~level:(level + 1);
        moundify t n ~level
      end
      else begin
        let ln = node.list and ll = left.list and lr = right.list in
        if head_compare ll lr <= 0 && head_compare ll ln < 0 then begin
          (* Swap lists with the left child (L48–L51). The child becomes
             dirty and is cleaned recursively. *)
          if
            M.dcas slot node
              { list = left.list; dirty = false; seq = node.seq + 1 }
              lslot left
              { list = node.list; dirty = true; seq = left.seq + 1 }
          then moundify t (2 * n) ~level:(level + 1)
          else moundify t n ~level
        end
        else if head_compare lr ll < 0 && head_compare lr ln < 0 then begin
          if
            M.dcas slot node
              { list = right.list; dirty = false; seq = node.seq + 1 }
              rslot right
              { list = node.list; dirty = true; seq = right.seq + 1 }
          then moundify t ((2 * n) + 1) ~level:(level + 1)
          else moundify t n ~level
        end
        else begin
          (* L56–L58: the node already dominates both children. *)
          if
            M.cas slot node
              { list = node.list; dirty = false; seq = node.seq + 1 }
          then ()
          else moundify t n ~level
        end
      end
    end

  (* ----- spurious-failure-tolerant publication ----- *)

  (* Under the chaos runtime a weak CAS can fail with the location
     observably unchanged. Re-attempting with the same fresh record
     costs nothing; re-probing the tree and re-allocating the record
     would. Both loops exit at the first real change (physical
     inequality), so on the default runtimes they never iterate. *)

  (* lint: allow — retries only while the location is observably
     unchanged, i.e. on spurious weak-CAS failure; a real change exits *)
  let rec cas_reusing slot cur fresh =
    M.cas slot cur fresh
    || (M.get slot == cur && cas_reusing slot cur fresh)

  (* lint: allow — same spurious-failure-only retry as cas_reusing *)
  let rec dcss_reusing pslot parent cslot cur fresh =
    M.dcss pslot parent cslot cur fresh
    || M.get cslot == cur
       && M.get pslot == parent
       && dcss_reusing pslot parent cslot cur fresh

  (* ----- deadlines ----- *)

  (* Absolute [R.monotonic_ns] stamp; [Intf.no_deadline] short-circuits
     so the unbounded paths never read the clock. *)
  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  let bump_timeout t = t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1

  (* What [put] and [take] return when they lose a race, and the
     extraction loop when its deadline passes. Never installed in a
     slot, so [r == missed] / [r == gave_up] hold for these records
     alone. *)
  let missed = { list = []; dirty = false; seq = -1 }
  let gave_up = { list = []; dirty = false; seq = -2 }

  (* ----- insert ----- *)

  (* After this many failed candidate selections, stop re-rolling random
     leaves and take the deterministic escape hatch below. *)
  let max_insert_rounds = 8

  (* The paper's escape hatch for repeated selection failures: abandon
     randomized probing and binary-search the leftmost root-to-leaf
     chain (falling back toward the root — the root itself is the
     candidate when [v] dominates the whole chain). If even the leftmost
     leaf does not dominate [v], the tree grows a level; a fresh leaf is
     empty (⊤), so this loop always produces a candidate without further
     randomization. *)
  let rec fallback_point t ~ge =
    let d = T.depth t.tree in
    let leaf = 1 lsl (d - 1) in
    if ge (T.get_at t.tree ~level:(d - 1) leaf) then
      T.binary_search t.tree ~ge leaf d
    else begin
      T.expand t.tree d;
      fallback_point t ~ge
    end

  (** One publication attempt (L4–L15) of the sorted run [hd :: rest]:
      find a candidate for [hd] by randomized probing, or on the
      leftmost chain when [fallback]; re-validate it and its parent
      (probing was unsynchronized, L7); then publish [hd] spliced with
      the longest prefix of [rest] that fits the candidate, by a plain
      CAS at the root (L9–L10) or a DCSS that requires the parent
      unchanged (L12–L14). Returns the record it replaced, whose list
      bounds the spliced prefix, or [missed]. [ge] tests a node against
      [hd]; callers build it once and reuse it across attempts. *)
  let put t ~ge ~fallback hd rest =
    let c =
      if fallback then fallback_point t ~ge else T.find_insert_point t.tree ~ge
    in
    let clvl = T.level_of c in
    let cslot = T.get_at t.tree ~level:clvl c in
    let cur = M.get cslot in
    if not (Intf.Sorted.head_ge Ord.compare cur.list hd) then missed
    else
      let fresh =
        {
          list = hd :: Intf.Sorted.splice Ord.compare rest cur.list;
          dirty = cur.dirty;
          seq = cur.seq + 1;
        }
      in
      if c = 1 then if cas_reusing cslot cur fresh then cur else missed
      else
        let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
        let parent = M.get pslot in
        if
          Intf.Sorted.head_le Ord.compare parent.list hd
          && dcss_reusing pslot parent cslot cur fresh
        then cur
        else missed

  (* [ge v slot]: does the node in [slot] dominate [v]? The probe
     predicate, over [Ord.compare] directly: [Intf.Sorted.head_ge] would
     be a call into another module on every probe. *)
  let ge v slot =
    match (M.get slot).list with [] -> true | x :: _ -> Ord.compare x v >= 0

  (* A first failure retries immediately (benign race, exactly the
     paper's loop); sustained failure backs off exponentially so
     contending inserters spread out instead of re-colliding, and after
     [max_insert_rounds] the candidate comes from the root fallback. A
     deadline is checked between attempts, so a [Timeout] can only be
     returned with the element unpublished. *)
  let rec insert_round t v ~ge ~deadline round =
    if round = max_insert_rounds then begin
      t.ops.root_fallbacks <- t.ops.root_fallbacks + 1;
      (* a full round budget burned without landing the insert *)
      t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1
    end;
    if put t ~ge ~fallback:(round >= max_insert_rounds) v [] != missed then
      Intf.Ok ()
    else begin
      t.ops.insert_retries <- t.ops.insert_retries + 1;
      if expired ~deadline then begin
        bump_timeout t;
        Intf.Timeout
      end
      else begin
        if round > 0 then begin
          t.ops.insert_backoffs <- t.ops.insert_backoffs + 1;
          B.exponential ~cap_bits:6 (round - 1)
        end;
        insert_round t v ~ge ~deadline (round + 1)
      end
    end

  let insert_until t ~deadline v = insert_round t v ~ge:(ge v) ~deadline 0

  let insert t v =
    match insert_until t ~deadline:Intf.no_deadline v with
    | Intf.Ok () -> ()
    | Timeout | Rejected -> assert false (* no deadline, no admission *)

  (** Alternative insert for the ablation study: the paper's §III-D opens
      with "the simplest technique for making insert lock-free is to use a
      k-compare-single-swap operation (k-CSS), in which the entire set of
      nodes that are read in the binary search are kept constant during
      the insertion" — before showing that validating only the
      parent/child pair (the DCSS of {!insert}) suffices. This version
      implements the naive k-CSS scheme with a CASN whose upper legs
      rewrite each ancestor to itself, so benches can quantify what the
      DCSS insight saves. *)
  (* lint: allow — deliberately naive ablation baseline: the paper's
     strawman k-CSS insert retries without backoff by construction *)
  let rec insert_kcss t v =
    let c = T.find_insert_point t.tree ~ge:(ge v) in
    (* Snapshot the whole ancestor chain root..c. *)
    let rec chain i acc = if i = 0 then acc else chain (i / 2) (i :: acc) in
    let path = chain c [] in
    let snap = List.map (fun i -> (i, M.get (T.get t.tree i))) path in
    let valid =
      List.for_all
        (fun (i, node) ->
          if i = c then Intf.Sorted.head_ge Ord.compare node.list v
          else Intf.Sorted.head_le Ord.compare node.list v)
        snap
    in
    if not valid then insert_kcss t v
    else
      let ops =
        List.map
          (fun (i, node) ->
            let slot = T.get t.tree i in
            if i = c then
              (slot, node,
               { list = v :: node.list; dirty = node.dirty; seq = node.seq + 1 })
            else (slot, node, node))
          snap
        |> Array.of_list
      in
      if not (M.casn ops) then insert_kcss t v

  (* Attempts per run before conceding the head to element-wise
     [insert] (which carries the backoff) and resuming batching. *)
  let batch_tries = 4

  (** Insert a {e sorted} batch — the dual of [extract_many], for
      returning unconsumed work to the pool. Each step is one [put] of
      the current head and the longest prefix that fits its node, so
      probing and binary search are paid per node, not per element.
      Under contention the head falls back to the element-wise [insert]
      and batching resumes with the remainder. *)
  let insert_many t batch =
    let rec go batch tries =
      match batch with
      | [] -> ()
      | hd :: rest ->
          if tries = 0 then begin
            insert t hd;
            go rest batch_tries
          end
          else
            let cur = put t ~ge:(ge hd) ~fallback:false hd rest in
            if cur == missed then go batch (tries - 1)
            else
              go (Intf.Sorted.remainder Ord.compare rest cur.list) batch_tries
    in
    go batch batch_tries

  (* ----- extraction ----- *)

  (** One extraction attempt at node [n] (level [level]) through [slot]:
      help a dirty node restore the property (L24–L26) and return it as
      read; return an empty node as read (L27); otherwise CAS its list
      beheaded, or emptied when [all] ([extract_many], §V), with the
      dirty bit set, run [moundify] (L28–L32), and return the node as
      read — its head is the element taken — or [missed] if the CAS
      lost. *)
  let take t slot n ~level ~all =
    let node = M.get slot in
    if node.dirty then begin
      moundify t n ~level;
      node
    end
    else
      match node.list with
      | [] -> node
      | _ :: tl ->
          if
            cas_reusing slot node
              {
                list = (if all then [] else tl);
                dirty = true;
                seq = node.seq + 1;
              }
          then begin
            moundify t n ~level;
            node
          end
          else missed

  (* Consecutive non-progress iterations of one extraction before the
     attempt is counted as a livelock near miss: sustained spinning that
     eventually resolved, the dynamic shadow of the liveness checker. *)
  let near_miss_spins = 8

  (* The root extraction loop behind [extract_min], its deadline variant
     and [extract_many]: take from the root until an attempt neither
     helps nor loses, and return the root as read, or [gave_up]. *)
  let rec take_root t ~all ~deadline spin =
    if spin = near_miss_spins then
      t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
    if spin > 0 && expired ~deadline then begin
      (* checked only on retry iterations: the first attempt always
         runs, so a generous deadline never turns into a spurious
         [Timeout], and nothing has been removed when we give up *)
      bump_timeout t;
      gave_up
    end
    else
      let node = take t (T.get_at t.tree ~level:0 1) 1 ~level:0 ~all in
      if node == missed then begin
        t.ops.extract_retries <- t.ops.extract_retries + 1;
        take_root t ~all ~deadline (spin + 1)
      end
      else if node.dirty then begin
        t.ops.helps <- t.ops.helps + 1;
        take_root t ~all ~deadline (spin + 1)
      end
      else node

  let extract_min t =
    node_value (take_root t ~all:false ~deadline:Intf.no_deadline 0)

  let extract_min_until t ~deadline =
    let node = take_root t ~all:false ~deadline 0 in
    if node == gave_up then Intf.Timeout else Intf.Ok (node_value node)

  (** Take the root's whole sorted list in one linearizable step (§V):
      the same protocol as [extract_min], with the list emptied rather
      than beheaded. *)
  let extract_many t =
    (take_root t ~all:true ~deadline:Intf.no_deadline 0).list

  (** Probabilistic extract-min (§V): any non-dirty node is the root of a
      sub-mound, so extracting from a random node within the first
      [max_level+1] levels returns an element that is a minimum of that
      sub-mound — probably close to the global minimum, at much lower
      contention. Falls back to the exact operation when the probed node
      is empty or stays contended for four attempts. *)
  let extract_approx ?(max_level = 2) t =
    let d = T.depth t.tree in
    let lvl = min max_level (d - 1) in
    let span = (1 lsl (lvl + 1)) - 1 in
    let n = 1 + R.rand_int span in
    if n = 1 then extract_min t
    else
      let level = T.level_of n in
      let slot = T.get_at t.tree ~level n in
      let rec attempt tries =
        if tries = 0 then extract_min t
        else
          let node = take t slot n ~level ~all:false in
          if node == missed || node.dirty then attempt (tries - 1)
          else match node.list with [] -> extract_min t | x :: _ -> Some x
      in
      attempt 4

  let rec peek_min t =
    let root = read t 1 in
    if root.dirty then begin
      t.ops.helps <- t.ops.helps + 1;
      moundify t 1 ~level:0;
      peek_min t
    end
    else node_value root

  let is_empty t = peek_min t = None

  (* ----- quiescent introspection (stats, tests) ----- *)

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (M.get slot).list) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** Quiescent check of per-list sortedness and the (dirty-aware) mound
      property of §II: a non-dirty parent dominates its children. *)
  let check t =
    Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t) ~parent:(fun p ->
        let parent = read t p in
        if parent.dirty then None else Some parent.list)
end
