(** Growable array-based complete binary tree shared by all mound
    variants.

    Mirrors the paper's implementation choice (§VI-A): instead of one flat
    array, the tree is a fixed table of per-level rows, where row [l]
    holds the 2^l nodes of level [l] and is allocated only when the mound
    first reaches that depth. Indices are 1-based as in the paper: node
    [i] has parent [i/2] and children [2i], [2i+1]; its level is
    ⌊log₂ i⌋. Rows and the depth counter are atomics so the tree can grow
    under concurrency: a row is published before the depth CAS that makes
    it reachable.

    The leaf-probing / binary-search logic of [findInsertPoint] (paper
    Listing 2, L16–L21), its leftmost-chain escape hatch and the §V
    shallow-node draw live here too, parameterized by a per-mound
    predicate on the slot the search reads and the key, because they are
    identical across the lock-free, locking and sequential variants —
    they perform only reads plus the depth-expansion CAS. *)

(** ⌊log₂ i⌋ in constant time by binary decomposition of the shift
    distance (6 branches on 63-bit ints, vs. one branch per bit for the
    naive shift loop). Requires [i >= 1]; shared by the functor below
    and by {!Stats}. *)
let level_of i =
  let l = ref 0 and v = ref i in
  if !v lsr 32 <> 0 then begin
    l := !l + 32;
    v := !v lsr 32
  end;
  if !v lsr 16 <> 0 then begin
    l := !l + 16;
    v := !v lsr 16
  end;
  if !v lsr 8 <> 0 then begin
    l := !l + 8;
    v := !v lsr 8
  end;
  if !v lsr 4 <> 0 then begin
    l := !l + 4;
    v := !v lsr 4
  end;
  if !v lsr 2 <> 0 then begin
    l := !l + 2;
    v := !v lsr 2
  end;
  if !v lsr 1 <> 0 then incr l;
  !l

module Make (R : Runtime.S) = struct
  (* 2^30 nodes at the deepest level is already beyond feasible memory;
     the cap exists to bound the rows table, not as a realistic limit. *)
  let max_levels = 30

  let level_of = level_of

  (* Every traversal starts at the root, so the slots of the first few
     levels are the hottest words in the structure. Their rows are
     pre-published by [create] (7 slots — negligible memory) with live
     pad blocks interleaved between consecutive slot allocations, so
     sibling atomics do not start out on the same cache line. The pads
     separate the slots' own allocations; a row whose slots allocate
     nothing (the sequential mound's row of lists, [[]] at creation)
     has nothing for them to separate. Best effort under a moving
     collector, but the pads are reachable from the tree record, which
     keeps the spacing from collapsing at the first minor collection. *)
  let hot_levels = 3

  (* 64-byte line on 64-bit, minus the block header word *)
  let pad_words = 7

  type 'slot t = {
    rows : 'slot array option R.Atomic.t array;
    depth : int R.Atomic.t;
    make_slot : unit -> 'slot;
    threshold : int;
    rand : int -> int;  (* thread-safe source of random leaf offsets *)
    row_allocs : int R.Atomic.t;
        (* full rows allocated by [expand]; exceeds the number of
           published rows only when racing expanders both allocate *)
    pads : int array list;  (* keeps the hot-level padding live *)
  }

  let create ?(threshold = Intf.default_threshold) ?(init_depth = 1)
      ?(rand = R.rand_int) make_slot =
    if init_depth < 1 || init_depth > max_levels then
      invalid_arg "Mound.Tree.create: bad initial depth";
    if threshold < 1 then invalid_arg "Mound.Tree.create: bad threshold";
    let pads = ref [] in
    let make_padded () =
      let s = make_slot () in
      pads := Array.make pad_words 0 :: !pads;
      s
    in
    let prealloc = max init_depth hot_levels in
    let rows =
      Array.init max_levels (fun l ->
          if l < prealloc then
            R.Atomic.make
              (Some
                 (Array.init (1 lsl l) (fun _ ->
                      if l < hot_levels then make_padded () else make_slot ())))
          else R.Atomic.make None)
    in
    {
      rows;
      depth = R.Atomic.make init_depth;
      make_slot;
      threshold;
      rand;
      row_allocs = R.Atomic.make 0;
      pads = !pads;
    }

  let depth t = R.Atomic.get t.depth

  (** Full-row allocations performed by {!expand} since creation (the
      pre-published hot rows are not counted). With the allocation
      hoisted behind the publish loop, a single-threaded expansion —
      even under spurious weak-CAS failures — allocates each row exactly
      once; concurrent expanders can still each allocate, but only one
      allocation per level is ever published. *)
  let row_allocations t = R.Atomic.get t.row_allocs

  (** [row t ~level] is the published row of level [level]: node [i] of
      that level is its element [i - 2^level]. A caller that visits
      several nodes of one level, or mutates slots in place (the
      sequential mound stores its lists directly in the rows), fetches
      the row once. The row must have been published, which holds for
      any level below a read of [depth]. Inlined, so [get_at] stays one
      call. *)
  let[@inline] row t ~level =
    match R.Atomic.get t.rows.(level) with
    | Some row -> row
    | None -> invalid_arg "Mound.Tree.get: unallocated level"

  (** [get_at t ~level i] is the slot of node [i] (1-based) when
      [level_of i] is already known from the traversal, skipping the
      recomputation. Same precondition as {!row}. *)
  let get_at t ~level i = (row t ~level).(i - (1 lsl level))

  let get t i = get_at t ~level:(level_of i) i

  (* Publish row [d] (the new leaf level) if needed, then try to advance
     the depth. The row is allocated at most once per call, before the
     publish loop: a spurious weak-CAS failure (the chaos runtime)
     retries the publish with the same row instead of re-allocating, and
     a caller that observes another thread's row allocates nothing. The
     publish loops until the row is observably [Some] — advancing
     [depth] past an unpublished row would make [get] fail. The depth
     CAS needs no such loop: callers re-read [depth] and call [expand]
     again if it has not moved. *)
  let expand t d =
    if d >= max_levels then failwith "Mound.Tree.expand: tree is full";
    (match R.Atomic.get t.rows.(d) with
    | Some _ -> ()
    | None ->
        let row = Some (Array.init (1 lsl d) (fun _ -> t.make_slot ())) in
        ignore (R.Atomic.fetch_and_add t.row_allocs 1);
        let rec publish () =
          match R.Atomic.get t.rows.(d) with
          | Some _ -> ()
          | None ->
              ignore (R.Atomic.compare_and_set t.rows.(d) None row);
              publish ()
        in
        publish ());
    ignore (R.Atomic.compare_and_set t.depth d (d + 1))

  (* Probe up to [k] random leaves of the leaf row [level] (its first
     node is [first_leaf]) for one whose slot dominates [v] ([ge slot v]);
     returns 0 when none does. Each probe reads the row, then hands [ge]
     the leaf's slot, the one read [get_at] would make. [ge] is the
     mound's one static predicate and the key travels beside it, so an
     insert allocates no closure for its search. Explicit-parameter
     recursion — unlike an inner closure, no environment is allocated
     per call on the insert hot path. *)
  let rec probe_leaves t ~ge v ~level first_leaf k =
    if k = 0 then 0
    else
      let off = t.rand first_leaf in
      if ge (row t ~level).(off) v then first_leaf + off
      else probe_leaves t ~ge v ~level first_leaf (k - 1)

  (* Binary search along the ancestor chain of [leaf] (depth [d] levels)
     for the shallowest node whose slot dominates [v] — O(log log N)
     probes since the chain has length ⌊log₂ N⌋. Each probe knows its
     level [mid], so it reads that row and hands [ge] the ancestor's
     slot. Precondition: [ge] holds at the leaf itself. Under
     concurrency the chain may momentarily not be sorted; the caller
     re-validates before writing. *)
  let binary_search t ~ge v leaf d =
    let lo = ref 0 and hi = ref (d - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let node = leaf lsr (d - 1 - mid) in
      if ge (row t ~level:mid).(node - (1 lsl mid)) v then hi := mid
      else lo := mid + 1
    done;
    leaf lsr (d - 1 - !lo)

  (** [find_insert_point t ~ge v] probes up to [t.threshold] random
      leaves for one whose value dominates [v] ([ge s v] must be
      [val(s) >= v] for the slot [s] it is handed), then binary-searches
      its ancestor chain for the candidate insertion point, a node index
      ({!level_of} gives its level). If every probe fails, the tree is
      one level too shallow for this element and is expanded. *)
  let rec find_insert_point t ~ge v =
    let d = R.Atomic.get t.depth in
    let first_leaf = 1 lsl (d - 1) in
    match probe_leaves t ~ge v ~level:(d - 1) first_leaf t.threshold with
    | 0 ->
        expand t d;
        find_insert_point t ~ge v
    | leaf -> binary_search t ~ge v leaf d

  (** The paper's escape hatch for repeated selection failures: the
      same search without randomization, on the leftmost root-to-leaf
      chain (falling back toward the root — the root itself is the
      candidate when [v] dominates the whole chain). If even the
      leftmost leaf does not dominate [v], the tree grows a level; a
      fresh leaf is empty (⊤), so this loop always produces a
      candidate. *)
  let rec fallback_point t ~ge v =
    let d = depth t in
    let leaf = 1 lsl (d - 1) in
    if ge (get_at t ~level:(d - 1) leaf) v then binary_search t ~ge v leaf d
    else begin
      expand t d;
      fallback_point t ~ge v
    end

  (* An adapter that exists only for bench/perf/layers.ml, whose tree
     benchmark still searches with a per-call predicate by this name. *)
  let find_insert_point_lv t ~ge =
    find_insert_point t ~ge:(fun slot () -> ge slot) ()

  (** The node a probabilistic extract-min (§V) takes from: uniform over
      the nodes of the first [max_level + 1] levels (all of them when
      the tree is shallower), drawn from the tree's own random source. *)
  let shallow_node t ~max_level =
    let lvl = min max_level (depth t - 1) in
    1 + t.rand ((1 lsl (lvl + 1)) - 1)

  (** [is_leaf t i ~depth:d] — is [i] on the deepest level of a tree of
      depth [d]? *)
  let is_leaf i ~depth:d = i land (1 lsl (d - 1)) <> 0 && i < 1 lsl d

  (** Quiescent fold over all reachable slots in index order, with the
      node index. Not linearizable; meant for statistics and tests. *)
  let fold t f acc =
    let d = R.Atomic.get t.depth in
    let acc = ref acc in
    for l = 0 to d - 1 do
      match R.Atomic.get t.rows.(l) with
      | None -> ()
      | Some row ->
          Array.iteri (fun j slot -> acc := f !acc ((1 lsl l) + j) slot) row
    done;
    !acc
end
