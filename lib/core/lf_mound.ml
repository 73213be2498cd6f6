(** Lock-free mound (paper §III, Listing 2).

    Each tree node is an {!Mcas} cell, held in its level's {!Tree} row
    itself, whose state is an immutable record: the paper's
    ⟨list, dirty, c⟩ triple with the list's head in the record
    ([Node {hd; tl; dirty; seq}], or [Empty {dirty; seq}] for ⊤). Both
    are constructors of the cell state ({!Mcas.Make.state}) itself, not
    values in a box, so a probe or a [moundify] comparison reads the
    head right after the cell: row, cell, record. Every slot starts out
    holding one shared initial [Empty]; the first write replaces it with
    a fresh record, as every later one does.
    A single [Cell.get] is the paper's atomic READ; publishing a fresh
    record per update gives the counter-stamped-CAS semantics of the
    paper (we keep the [seq] counter for fidelity and diagnostics, but in
    OCaml physical equality on the fresh record already rules out ABA).
    Every multi-cell operation names its legs parent first (the DCAS of
    [moundify], the DCSS of [insert], [insert_kcss]'s chain root first),
    which is the order the tree allocates its cells in, so all of them
    install in one global order.

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
  module Cell = M.Cell
  module T = Tree.Make (R)
  module B = Runtime.Backoff.Make (R)

  type elt = Ord.t

  (* The node's sorted list is [hd :: tl], or empty (⊤). The state type
     is open, so every match on a node ends in a raising arm, which
     never runs: a cell read returns only the records stored here,
     never the protocol's own states. The cells' type parameter is the
     location API's payload type, which these cells never box: any type
     would do. *)
  type _ M.state +=
    | Empty of { dirty : bool; seq : int }
    | Node of { hd : elt; tl : elt list; dirty : bool; seq : int }

  type t = { tree : elt Cell.t T.t; ops : Stats.Ops.t }

  let is_dirty = function
    | Empty { dirty; _ } | Node { dirty; _ } -> dirty
    | _ -> assert false

  let stamp = function
    | Empty { seq; _ } | Node { seq; _ } -> seq
    | _ -> assert false

  let to_list = function
    | Empty _ -> []
    | Node { hd; tl; _ } -> hd :: tl
    | _ -> assert false

  let node_value = function
    | Empty _ -> None
    | Node { hd; _ } -> Some hd
    | _ -> assert false

  (* Node values ordered as {!Intf.Value} orders them, an empty node
     being ⊤; the comparisons of every [moundify] level, written here
     over [Ord.compare] (DESIGN.md §8's [-opaque] rule). *)
  let head_compare a b =
    match (a, b) with
    | Empty _, Empty _ -> 0
    | Empty _, Node _ -> 1
    | Node _, Empty _ -> -1
    | Node { hd = x; _ }, Node { hd = y; _ } -> Ord.compare x y
    | _ -> assert false

  (* [head_ge n v]: [val(n) >= v], so [v] may be pushed onto [n];
     [head_le n v]: [val(n) <= v], the parent-side insertion
     condition, which ⊤ never satisfies. *)
  let head_ge n v =
    match n with
    | Empty _ -> true
    | Node { hd; _ } -> Ord.compare hd v >= 0
    | _ -> assert false

  let head_le n v =
    match n with
    | Empty _ -> false
    | Node { hd; _ } -> Ord.compare hd v <= 0
    | _ -> assert false

  (* What every slot holds until its first write. *)
  let initial = Empty { dirty = false; seq = 0 }

  let create ?threshold () =
    let make_slot () = Cell.make initial in
    { tree = T.create ?threshold make_slot; ops = Stats.Ops.create () }

  (** Retry / helping / backoff counters since creation. Exact and
      deterministic under the simulator; racy (diagnostic) on real
      domains. *)
  let ops t = t.ops

  let depth t = T.depth t.tree

  let read t i = Cell.get (T.get t.tree i)

  (* ----- moundify: restore the mound property at a dirty node ----- *)

  (* [level] must be ⌊log₂ n⌋: the traversal always knows it (the root
     is level 0, children are one deeper), so node slots are fetched
     with [get_at] instead of recomputing the level on every access. *)
  let rec moundify t n ~level =
    let slot = T.get_at t.tree ~level n in
    let node = Cell.get slot in
    let d = T.depth t.tree in
    if not (is_dirty node) then () (* helped by someone else — L36 *)
    else if T.is_leaf n ~depth:d then begin
      (* L37–L39: a leaf trivially satisfies the property. *)
      if
        Cell.cas slot node
          (match node with
          | Empty e -> Empty { dirty = false; seq = e.seq + 1 }
          | Node x -> Node { x with dirty = false; seq = x.seq + 1 }
          | _ -> assert false)
      then ()
      else moundify t n ~level
    end
    else begin
      let lslot = T.get_at t.tree ~level:(level + 1) (2 * n)
      and rslot = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let left = Cell.get lslot in
      let right = Cell.get rslot in
      if is_dirty left then begin
        (* dirtied by another operation: helping (L41–L44) *)
        t.ops.helps <- t.ops.helps + 1;
        moundify t (2 * n) ~level:(level + 1);
        moundify t n ~level
      end
      else if is_dirty right then begin
        t.ops.helps <- t.ops.helps + 1;
        moundify t ((2 * n) + 1) ~level:(level + 1);
        moundify t n ~level
      end
      else
        (* A child whose head is below the node's is not empty. *)
        match (left, right) with
        | Node l, _
          when head_compare left right <= 0 && head_compare left node < 0 ->
            (* Swap lists with the left child (L48–L51). The child becomes
               dirty and is cleaned recursively. *)
            if
              Cell.dcas slot node
                (Node { l with dirty = false; seq = stamp node + 1 })
                lslot left
                (match node with
                | Empty _ -> Empty { dirty = true; seq = l.seq + 1 }
                | Node x -> Node { x with dirty = true; seq = l.seq + 1 }
                | _ -> assert false)
            then moundify t (2 * n) ~level:(level + 1)
            else moundify t n ~level
        | _, Node r
          when head_compare right left < 0 && head_compare right node < 0 ->
            if
              Cell.dcas slot node
                (Node { r with dirty = false; seq = stamp node + 1 })
                rslot right
                (match node with
                | Empty _ -> Empty { dirty = true; seq = r.seq + 1 }
                | Node x -> Node { x with dirty = true; seq = r.seq + 1 }
                | _ -> assert false)
            then moundify t ((2 * n) + 1) ~level:(level + 1)
            else moundify t n ~level
        | _ ->
            (* L56–L58: the node already dominates both children. *)
            if
              Cell.cas slot node
                (match node with
                | Empty e -> Empty { dirty = false; seq = e.seq + 1 }
                | Node x -> Node { x with dirty = false; seq = x.seq + 1 }
                | _ -> assert false)
            then ()
            else moundify t n ~level
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
    Cell.cas slot cur fresh
    || (Cell.get slot == cur && cas_reusing slot cur fresh)

  (* lint: allow — same spurious-failure-only retry as cas_reusing *)
  let rec dcss_reusing pslot parent cslot cur fresh =
    Cell.dcss pslot parent cslot cur fresh
    || Cell.get cslot == cur
       && Cell.get pslot == parent
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
  let missed = Empty { dirty = false; seq = -1 }
  let gave_up = Empty { dirty = false; seq = -2 }

  (* ----- insert ----- *)

  (* After this many failed candidate selections, stop re-rolling random
     leaves and take the tree's deterministic escape hatch
     ({!Tree.Make.fallback_point}). *)
  let max_insert_rounds = 8

  (* [ge slot v]: does the node in [slot] dominate [v]? The insert
     search's probe predicate. *)
  let ge slot v = head_ge (Cell.get slot) v

  (** One publication attempt (L4–L15) of the sorted run [hd :: rest]:
      find a candidate for [hd] by randomized probing, or on the
      leftmost chain when [fallback]; re-validate it and its parent
      (probing was unsynchronized, L7); then publish [hd] spliced with
      the longest prefix of [rest] that fits the candidate, by a plain
      CAS at the root (L9–L10) or a DCSS that requires the parent
      unchanged (L12–L14). Returns the record it replaced, whose list
      bounds the spliced prefix, or [missed]. *)
  let put t ~fallback hd rest =
    let c =
      if fallback then T.fallback_point t.tree ~ge hd
      else T.find_insert_point t.tree ~ge hd
    in
    let clvl = T.level_of c in
    let cslot = T.get_at t.tree ~level:clvl c in
    let cur = Cell.get cslot in
    if not (head_ge cur hd) then missed
    else
      let fresh =
        Node
          {
            hd;
            tl = Intf.Sorted.splice Ord.compare rest (to_list cur);
            dirty = is_dirty cur;
            seq = stamp cur + 1;
          }
      in
      if c = 1 then if cas_reusing cslot cur fresh then cur else missed
      else
        let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
        let parent = Cell.get pslot in
        if head_le parent hd && dcss_reusing pslot parent cslot cur fresh
        then cur
        else missed

  (* A first failure retries immediately (benign race, exactly the
     paper's loop); sustained failure backs off exponentially so
     contending inserters spread out instead of re-colliding, and after
     [max_insert_rounds] the candidate comes from the root fallback. A
     deadline is checked between attempts, so a [Timeout] can only be
     returned with the element unpublished. *)
  let rec insert_round t v ~deadline round =
    if round = max_insert_rounds then begin
      t.ops.root_fallbacks <- t.ops.root_fallbacks + 1;
      (* a full round budget burned without landing the insert *)
      t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1
    end;
    if put t ~fallback:(round >= max_insert_rounds) v [] != missed then
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
        insert_round t v ~deadline (round + 1)
      end
    end

  let insert_until t ~deadline v = insert_round t v ~deadline 0

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
    let c = T.find_insert_point t.tree ~ge v in
    (* Snapshot the whole ancestor chain root..c. *)
    let rec chain i acc = if i = 0 then acc else chain (i / 2) (i :: acc) in
    let path = chain c [] in
    let snap = List.map (fun i -> (i, Cell.get (T.get t.tree i))) path in
    let valid =
      List.for_all
        (fun (i, node) -> if i = c then head_ge node v else head_le node v)
        snap
    in
    if not valid then insert_kcss t v
    else
      let ops =
        List.map
          (fun (i, node) ->
            let slot = T.get t.tree i in
            if i = c then
              ( slot,
                node,
                Node
                  {
                    hd = v;
                    tl = to_list node;
                    dirty = is_dirty node;
                    seq = stamp node + 1;
                  } )
            else (slot, node, node))
          snap
        |> Array.of_list
      in
      if not (Cell.casn ops) then insert_kcss t v

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
            let cur = put t ~fallback:false hd rest in
            if cur == missed then go batch (tries - 1)
            else
              go (Intf.Sorted.remainder Ord.compare rest (to_list cur))
                batch_tries
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
    let node = Cell.get slot in
    if is_dirty node then begin
      moundify t n ~level;
      node
    end
    else
      match node with
      | Empty _ -> node
      | Node x ->
          if
            cas_reusing slot node
              (match x.tl with
              | hd :: tl when not all ->
                  Node { hd; tl; dirty = true; seq = x.seq + 1 }
              | _ -> Empty { dirty = true; seq = x.seq + 1 })
          then begin
            moundify t n ~level;
            node
          end
          else missed
      | _ -> assert false

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
      else if is_dirty node then begin
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
    to_list (take_root t ~all:true ~deadline:Intf.no_deadline 0)

  (** Probabilistic extract-min (§V): any non-dirty node is the root of a
      sub-mound, so extracting from a random node within the first
      [max_level+1] levels returns an element that is a minimum of that
      sub-mound — probably close to the global minimum, at much lower
      contention. Falls back to the exact operation when the probed node
      is empty or stays contended for four attempts. *)
  let extract_approx ?(max_level = 2) t =
    let n = T.shallow_node t.tree ~max_level in
    if n = 1 then extract_min t
    else
      let level = T.level_of n in
      let slot = T.get_at t.tree ~level n in
      let rec attempt tries =
        if tries = 0 then extract_min t
        else
          let node = take t slot n ~level ~all:false in
          if node == missed || is_dirty node then attempt (tries - 1)
          else
            match node with
            | Empty _ -> extract_min t
            | Node { hd; _ } -> Some hd
            | _ -> assert false
      in
      attempt 4

  let rec peek_min t =
    let root = read t 1 in
    if is_dirty root then begin
      t.ops.helps <- t.ops.helps + 1;
      moundify t 1 ~level:0;
      peek_min t
    end
    else node_value root

  let is_empty t = peek_min t = None

  (* ----- quiescent introspection (stats, tests) ----- *)

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (to_list (Cell.get slot))) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** Quiescent check of per-list sortedness and the (dirty-aware) mound
      property of §II: a non-dirty parent dominates its children. *)
  let check t =
    Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t) ~parent:(fun p ->
        let parent = read t p in
        if is_dirty parent then None else Some (to_list parent))
end
