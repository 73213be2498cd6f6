(** Fine-grained locking mound (paper §IV, Listing 3).

    Each node is an atomic holding one of three things: ⊤ ([Empty], an
    immediate), an unlocked sorted list ([Node {hd; tl}], whose record
    carries the list's head), or a held node ([Locked {was}]). The paper
    reuses the dirty field as the lock bit; here the lock bit is the
    constructor. A held node is a fresh 2-word block that points at the
    unlocked record its acquisition replaced, so an acquisition
    allocates only that block, and a release re-installs a record
    instead of building one: [was] itself when the list did not change,
    or, when [moundify] swaps, the child's own record (the child is held
    on by a fresh block pointing at the parent's old record), so lists
    move instead of being copied. Only [put]'s published node and
    [take]'s beheaded node are new unlocked records. A probe or a
    [moundify] comparison reads the head right after the atomic — row,
    atomic, record, and one block more behind a held node. Every slot
    starts out holding [Empty]. [set_lock] is a test-and-CAS spinlock on
    the node; each lock tenure is identified by the physically-unique
    block the holder installed (its {e witness}): blocks are never
    re-installed, so a witness never recurs.

    [moundify] performs the downward restoration with hand-over-hand
    locking, always locking parents before children; [insert] locks the
    insertion point's parent before the insertion point for the same
    global order, which makes the scheme deadlock-free. Compared with the
    lock-free variant, a critical section that would take one software
    DCAS (≈5 CAS) costs at most three plain CAS acquisitions here —
    the latency advantage the paper measures.

    {2 Lease-based wedge recovery}

    A thread that dies holding a lock wedges every future operation that
    needs that node — the failure mode the paper's lock-freedom argument
    is about. With [create ~lease], a spinner that observes the {e same}
    witness block installed for longer than the lease presumes the
    holder dead and revokes the lock: it CASes the witness to a fresh
    block of its own pointing at the same record, restores the mound
    property below the node (the holder may have died mid-protocol), and
    then competes for the lock normally. Revocation is safe against
    slow-but-alive holders because every write a holder makes to a held
    node is a CAS against its witness — once revoked, those CASes fail
    and the holder abandons the node (an unpublished insert retries; a
    torn moundify swap is repaired by the revoker's own moundify).

    Recovery restores availability and the heap property in bounded
    time. It does {e not} make the locking mound crash-tolerant: a holder
    that dies at certain interior moundify points can leave an element
    duplicated or dropped — inherent to blocking designs, and exactly the
    contrast with the lock-free variant that the paper draws. The lease
    defaults to off, preserving the classic blocking behaviour. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module T = Tree.Make (R)

  type elt = Ord.t

  (* A slot's content: ⊤, the unlocked list [hd :: tl], or a held node
     whose block points at the unlocked record it replaced. *)
  type lnode =
    | Empty
    | Node of { hd : elt; tl : elt list }
    | Locked of { was : lnode }

  type t = {
    tree : lnode R.Atomic.t T.t;
    ops : Stats.Ops.t;
    lease : int;
        (** ns (virtual time under the simulator) a lock may be held
            before spinners may revoke it; 0 disables revocation *)
  }

  let is_locked = function Locked _ -> true | Empty | Node _ -> false

  (* The list a slot's content stands for; a held node stands for the
     record it replaced, which is never itself a block. *)
  let to_list = function
    | Empty | Locked { was = Empty } -> []
    | Node { hd; tl } | Locked { was = Node { hd; tl } } -> hd :: tl
    | Locked { was = Locked _ } -> assert false

  let node_value = function
    | Empty | Locked { was = Empty } -> None
    | Node { hd; _ } | Locked { was = Node { hd; _ } } -> Some hd
    | Locked { was = Locked _ } -> assert false

  (* Unlocked records ordered as {!Intf.Value} orders them, an empty
     node being ⊤; the comparisons of every [moundify] level, written
     here over [Ord.compare] (DESIGN.md §8's [-opaque] rule). Held
     nodes are compared by the records their blocks point at. *)
  let head_compare a b =
    match (a, b) with
    | Node { hd = x; _ }, Node { hd = y; _ } -> Ord.compare x y
    | Empty, Empty -> 0
    | Empty, _ -> 1
    | _, Empty -> -1
    | _ -> assert false

  (* [head_ge n v]: [val(n) >= v], so [v] may be pushed onto [n];
     [head_le n v]: [val(n) <= v], the parent-side insertion
     condition, which ⊤ never satisfies. The insert probe reads through
     held nodes. *)
  let head_ge n v =
    match n with
    | Empty | Locked { was = Empty } -> true
    | Node { hd; _ } | Locked { was = Node { hd; _ } } -> Ord.compare hd v >= 0
    | Locked { was = Locked _ } -> assert false

  let head_le n v =
    match n with
    | Empty | Locked { was = Empty } -> false
    | Node { hd; _ } | Locked { was = Node { hd; _ } } -> Ord.compare hd v <= 0
    | Locked { was = Locked _ } -> assert false

  (* What an acquisition returns when its deadline expires (and so what
     [take] and [put] return then), and the lease timer's "no holder
     observed yet"; and what [put] returns when its candidate fails
     validation or its lock is revoked. Neither is ever installed in a
     slot, so [w == gave_up] / [w == missed] hold for these blocks
     alone. Their contents differ because ocamlopt shares equal
     constant literals: two [Locked { was = Empty }] literals would be
     one static block. *)
  let gave_up = Locked { was = Empty }
  let missed = Locked { was = gave_up }

  let create ?(lease = 0) () =
    let make_slot () = R.Atomic.make Empty in
    {
      tree = T.create make_slot;
      ops = Stats.Ops.create ();
      lease;
    }

  (** Spin / retry counters since creation. Exact and deterministic
      under the simulator; racy (diagnostic) on real domains. *)
  let ops t = t.ops

  let depth t = T.depth t.tree

  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  let bump_timeout t = t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1

  (* Every write to a held node goes through the witness the holder
     installed. Without a lease nobody can revoke us, so the plain store
     of the classic algorithm is kept; with a lease the write must CAS
     against the witness — failure means a recoverer revoked the lock and
     the node is no longer ours to touch. *)
  let restamp t slot ~witness fresh =
    if t.lease = 0 then begin
      R.Atomic.set slot fresh;
      true
    end
    else R.Atomic.compare_and_set slot witness fresh

  (* Release the held [slot] with the record [src]'s block replaced: the
     witness's own when the list did not change, or a held child's when
     [moundify] swaps, which moves the child's list up. *)
  let unlock t slot ~witness src =
    restamp t slot ~witness
      (match src with Locked { was } -> was | _ -> assert false)

  (* Consecutive failed acquisitions of one [set_lock] call before the
     wait is counted as a livelock near miss (sustained non-progress that
     eventually resolved — the dynamic shadow of the liveness checker). *)
  let near_miss_spins = 64

  (* Spin until the node is acquired, honouring [deadline] and — when a
     lease is set — revoking holders that exceed it. Returns the block we
     installed (the witness), or [gave_up] on deadline expiry.
     [node]/[level] locate the slot in the tree so an expired-lease
     takeover can restore the mound property below it (paper F1–F4, plus
     recovery). [seen]/[since] are the lease timer: the first observation
     of the current holder's witness and our clock at that observation.
     A different block restarts the timer (a new tenure began). The
     loop is two top-level functions with explicit parameters, so an
     acquisition allocates nothing but the witness. *)
  let rec spin t slot ~node ~level ~deadline tries seen since =
    let n = R.Atomic.get slot in
    match n with
    | Empty | Node _ ->
        let mine = Locked { was = n } in
        if R.Atomic.compare_and_set slot n mine then mine
        else miss t slot ~node ~level ~deadline tries seen since
    | Locked { was } ->
        if t.lease > 0 then begin
          let now = R.monotonic_ns () in
          if seen == n then
            if now - since > t.lease then begin
              (* Holder exceeded its lease: presume it dead and take the
                 lock directly from its witness. The CAS is the whole
                 revocation — from here on the old holder's witnessed
                 writes all fail. *)
              let mine = Locked { was } in
              if R.Atomic.compare_and_set slot n mine then begin
                t.ops.lock_recoveries <- t.ops.lock_recoveries + 1;
                (* The holder may have died mid-protocol; restore the
                   mound property below this node (which also releases
                   it), then compete for the lock normally. *)
                moundify t node ~level ~witness:mine;
                spin t slot ~node ~level ~deadline tries gave_up 0
              end
              else miss t slot ~node ~level ~deadline tries seen since
            end
            else miss t slot ~node ~level ~deadline tries seen since
          (* lint: allow — a new holder restarts the lease timer: [n] is only
             ever compared with [==] against a later read, never stored *)
          else miss t slot ~node ~level ~deadline tries n now
        end
        else miss t slot ~node ~level ~deadline tries seen since

  and miss t slot ~node ~level ~deadline tries seen since =
    t.ops.lock_spins <- t.ops.lock_spins + 1;
    if tries = near_miss_spins then
      t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
    if expired ~deadline then gave_up
    else begin
      R.cpu_relax ();
      spin t slot ~node ~level ~deadline (tries + 1) seen since
    end

  and set_lock_until t slot ~node ~level ~deadline =
    spin t slot ~node ~level ~deadline 0 gave_up 0

  (* No deadline: the spin never gives up, so the result is a witness. *)
  and set_lock t slot ~node ~level =
    set_lock_until t slot ~node ~level ~deadline:Intf.no_deadline

  (* Precondition: the caller holds the lock on [n] via [witness], and
     [level] is ⌊log₂ n⌋ — the traversal always knows it (the root is
     level 0, children one deeper), so slots are fetched with [get_at]
     instead of recomputing the level per access. Restores the mound
     property below [n] and releases every lock it takes, including
     [n]'s (paper F14–F35). A witnessed write that fails means the lease
     recoverer revoked us; the node is abandoned and the revoker's own
     moundify repairs it. *)
  and moundify t n ~level ~witness =
    let slot = T.get_at t.tree ~level n in
    let d = T.depth t.tree in
    if T.is_leaf n ~depth:d then ignore (unlock t slot ~witness witness)
    else begin
      let lslot = T.get_at t.tree ~level:(level + 1) (2 * n)
      and rslot = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let wl = set_lock t lslot ~node:(2 * n) ~level:(level + 1) in
      let wr = set_lock t rslot ~node:((2 * n) + 1) ~level:(level + 1) in
      match (witness, wl, wr) with
      | Locked { was = p }, Locked { was = l }, Locked { was = r } ->
          if head_compare l r <= 0 && head_compare l p < 0 then begin
            (* Swap lists with the left child: the child is held on by a
               fresh block pointing at our record, and stays locked while
               we recurse into it — hand-over-hand — while its own record
               moves up to us. The child is written first so that if our
               own lock on [n] has been revoked, the swap aborts with
               both lists intact. *)
            let wl' = Locked { was = p } in
            if restamp t lslot ~witness:wl wl' then begin
              ignore (unlock t rslot ~witness:wr wr);
              ignore (unlock t slot ~witness wl);
              moundify t (2 * n) ~level:(level + 1) ~witness:wl'
            end
            else begin
              ignore (unlock t rslot ~witness:wr wr);
              ignore (unlock t slot ~witness witness)
            end
          end
          else if head_compare r l < 0 && head_compare r p < 0 then begin
            let wr' = Locked { was = p } in
            if restamp t rslot ~witness:wr wr' then begin
              ignore (unlock t lslot ~witness:wl wl);
              ignore (unlock t slot ~witness wr);
              moundify t ((2 * n) + 1) ~level:(level + 1) ~witness:wr'
            end
            else begin
              ignore (unlock t lslot ~witness:wl wl);
              ignore (unlock t slot ~witness witness)
            end
          end
          else begin
            ignore (unlock t slot ~witness witness);
            ignore (unlock t lslot ~witness:wl wl);
            ignore (unlock t rslot ~witness:wr wr)
          end
      | _ -> assert false
    end

  (** [take t n ~level ~all ~deadline] locks node [n] (level [level]),
      removes its list's head, or the whole list when [all]
      ([extract_many], §V), keeps the node locked and lets [moundify]
      release it (F9–F12); an empty node is just unlocked. Returns the
      witness, whose record is the node's list as it was (its head is
      the element taken), or [gave_up] once [deadline] passes. A
      revocation between acquisition and behead removed nothing, so the
      take retries. *)
  let rec take t n ~level ~all ~deadline =
    let slot = T.get_at t.tree ~level n in
    let w = set_lock_until t slot ~node:n ~level ~deadline in
    if w == gave_up then begin
      bump_timeout t;
      gave_up
    end
    else
      match w with
      | Locked { was = Node x } ->
          (* the beheaded record is a variable, never a constant: each
             tenure holds the node by a block of its own *)
          let rest =
            match x.tl with
            | hd :: tl when not all -> Node { hd; tl }
            | _ -> Empty
          in
          let w' = Locked { was = rest } in
          if restamp t slot ~witness:w w' then begin
            moundify t n ~level ~witness:w';
            w
          end
          else begin
            t.ops.extract_retries <- t.ops.extract_retries + 1;
            if expired ~deadline then begin
              bump_timeout t;
              gave_up
            end
            else take t n ~level ~all ~deadline
          end
      | _ ->
          ignore (unlock t slot ~witness:w w);
          w

  let extract_min_until t ~deadline =
    let w = take t 1 ~level:0 ~all:false ~deadline in
    if w == gave_up then Intf.Timeout else Intf.Ok (node_value w)

  let extract_min t =
    node_value (take t 1 ~level:0 ~all:false ~deadline:Intf.no_deadline)

  (** Take the root's entire list (§V): identical protocol with the list
      emptied instead of beheaded. *)
  let extract_many t =
    to_list (take t 1 ~level:0 ~all:true ~deadline:Intf.no_deadline)

  (** Probabilistic extract-min (§V): lock a random node within the first
      [max_level+1] levels and extract its head, which is the minimum of
      the sub-mound rooted there. Falls back to the exact operation on an
      empty probe. *)
  let extract_approx ?(max_level = 2) t =
    let n = T.shallow_node t.tree ~max_level in
    match
      node_value
        (take t n ~level:(T.level_of n) ~all:false ~deadline:Intf.no_deadline)
    with
    | None -> extract_min t
    | v -> v

  (* [ge slot v]: does the node in [slot] dominate [v]? The insert
     search's probe predicate. *)
  let ge slot v = head_ge (R.Atomic.get slot) v

  (** One publication attempt of the sorted run [hd :: rest]: find a
      candidate for [hd], lock its parent before it (moundify's order,
      F45–F46), re-validate both, and publish [hd] spliced with the
      longest prefix of [rest] that fits the candidate as the unlocking
      write. Returns the candidate's witness, whose record bounds the
      spliced prefix; [missed] when validation fails or a revocation
      beat the publication (nothing published); [gave_up] once a lock
      wait outlives [deadline]. *)
  let put t ~deadline hd rest =
    let c = T.find_insert_point t.tree ~ge hd in
    let clvl = T.level_of c in
    let cslot = T.get_at t.tree ~level:clvl c in
    if c = 1 then begin
      let w = set_lock_until t cslot ~node:1 ~level:0 ~deadline in
      if w == gave_up then begin
        bump_timeout t;
        gave_up
      end
      else if head_ge w hd then
        if
          restamp t cslot ~witness:w
            (match w with
            | Locked { was } ->
                Node
                  { hd; tl = Intf.Sorted.splice Ord.compare rest (to_list was) }
            | _ -> assert false)
        then w
        else missed
      else begin
        ignore (unlock t cslot ~witness:w w);
        missed
      end
    end
    else begin
      let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
      let wp = set_lock_until t pslot ~node:(c / 2) ~level:(clvl - 1) ~deadline in
      if wp == gave_up then begin
        bump_timeout t;
        gave_up
      end
      else
        let wc = set_lock_until t cslot ~node:c ~level:clvl ~deadline in
        if wc == gave_up then begin
          ignore (unlock t pslot ~witness:wp wp);
          bump_timeout t;
          gave_up
        end
        else if head_ge wc hd && head_le wp hd then begin
          let published =
            restamp t cslot ~witness:wc
              (match wc with
              | Locked { was } ->
                  Node
                    {
                      hd;
                      tl = Intf.Sorted.splice Ord.compare rest (to_list was);
                    }
              | _ -> assert false)
          in
          ignore (unlock t pslot ~witness:wp wp);
          if published then wc else missed
        end
        else begin
          ignore (unlock t pslot ~witness:wp wp);
          ignore (unlock t cslot ~witness:wc wc);
          missed
        end
    end

  (* A failed attempt re-probes at once. The deadline bounds both the
     lock waits and the revalidation retries; [Timeout] guarantees [v]
     was not published. *)
  let rec insert_round t v ~deadline =
    let w = put t ~deadline v [] in
    if w == gave_up then Intf.Timeout
    else if w != missed then Intf.Ok ()
    else begin
      t.ops.insert_retries <- t.ops.insert_retries + 1;
      if expired ~deadline then begin
        bump_timeout t;
        Intf.Timeout
      end
      else insert_round t v ~deadline
    end

  let insert_until t ~deadline v = insert_round t v ~deadline

  let insert t v =
    match insert_until t ~deadline:Intf.no_deadline v with
    | Intf.Ok () -> ()
    | Timeout | Rejected -> assert false (* no deadline, no admission *)

  let batch_tries = 4

  (** Insert a {e sorted} batch — the dual of [extract_many]. Each step
      is one [put] of the current head and the longest prefix that fits
      its node, under one lock pair, so probing and binary search are
      paid per node, not per element. Under contention the head falls
      back to the element-wise [insert] and batching resumes with the
      remainder. *)
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
            let w = put t ~deadline:Intf.no_deadline hd rest in
            if w == missed then go batch (tries - 1)
            else
              go (Intf.Sorted.remainder Ord.compare rest (to_list w))
                batch_tries
    in
    go batch batch_tries

  let peek_min t =
    let slot = T.get_at t.tree ~level:0 1 in
    let w = set_lock t slot ~node:1 ~level:0 in
    ignore (unlock t slot ~witness:w w);
    node_value w

  let is_empty t = peek_min t = None

  (* ----- quiescent introspection ----- *)

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (to_list (R.Atomic.get slot))) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** Quiescent check: sorted lists and the mound property at every
      parent/child pair, and no node locked. *)
  let check t =
    Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t) ~parent:(fun p ->
        Some (to_list (R.Atomic.get (T.get t.tree p))))
    && T.fold t.tree
         (fun ok _ slot -> ok && not (is_locked (R.Atomic.get slot)))
         true
end
