(** Fine-grained locking mound (paper §IV, Listing 3).

    Each node is an atomic holding an immutable [{list; locked; seq}]
    record — the paper reuses the dirty field as the lock bit, and
    unlocked nodes are never dirty. [set_lock] is a test-and-CAS spinlock
    on the node; the [seq] stamp increments on every transition, so each
    lock tenure is identified by the physically-unique locked record the
    holder installed (its {e witness}).

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
    witness record locked for longer than the lease presumes the holder
    dead and revokes the lock: it CASes the witness to a fresh locked
    record of its own, restores the mound property below the node (the
    holder may have died mid-protocol), and then competes for the lock
    normally. Revocation is safe against slow-but-alive holders because
    every write a holder makes to a held node is a CAS against its
    witness — once revoked, those CASes fail and the holder abandons the
    node (an unpublished insert retries; a torn moundify swap is repaired
    by the revoker's own moundify).

    Recovery restores availability and the heap property in bounded
    time. It does {e not} make the locking mound crash-tolerant: a holder
    that dies at certain interior moundify points can leave an element
    duplicated or dropped — inherent to blocking designs, and exactly the
    contrast with the lock-free variant that the paper draws. The lease
    defaults to off, preserving the classic blocking behaviour. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module T = Tree.Make (R)

  type elt = Ord.t

  type lnode = { list : elt list; locked : bool; seq : int }

  type t = {
    tree : lnode R.Atomic.t T.t;
    ops : Stats.Ops.t;
    lease : int;
        (** ns (virtual time under the simulator) a lock may be held
            before spinners may revoke it; 0 disables revocation *)
  }

  let node_value n = Intf.Sorted.value n.list

  let head_compare a b = Intf.Sorted.head_compare Ord.compare a b

  (* What an acquisition returns when its deadline expires (and so what
     [take] and [put] return then), and the lease timer's "no holder
     observed yet"; and what [put] returns when its candidate fails
     validation or its lock is revoked. Neither is ever installed in a
     slot, so [w == gave_up] / [w == missed] hold for these records
     alone. *)
  let gave_up = { list = []; locked = true; seq = -1 }
  let missed = { list = []; locked = true; seq = -2 }

  let create ?(lease = 0) () =
    let make_slot () = R.Atomic.make { list = []; locked = false; seq = 0 } in
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

  let unlock t slot ~witness list =
    restamp t slot ~witness { list; locked = false; seq = witness.seq + 1 }

  (* Consecutive failed acquisitions of one [set_lock] call before the
     wait is counted as a livelock near miss (sustained non-progress that
     eventually resolved — the dynamic shadow of the liveness checker). *)
  let near_miss_spins = 64

  (* Spin until the node is acquired, honouring [deadline] and — when a
     lease is set — revoking holders that exceed it. Returns the locked
     record we installed (the witness), or [gave_up] on deadline expiry.
     [node]/[level] locate the slot in the tree so an expired-lease
     takeover can restore the mound property below it (paper F1–F4, plus
     recovery). [seen]/[since] are the lease timer: the first observation
     of the current holder's witness and our clock at that observation.
     A different record restarts the timer (a new tenure began). The
     loop is two top-level functions with explicit parameters, so an
     acquisition allocates nothing but the witness. *)
  let rec spin t slot ~node ~level ~deadline tries seen since =
    let n = R.Atomic.get slot in
    if not n.locked then begin
      let mine = { list = n.list; locked = true; seq = n.seq + 1 } in
      if R.Atomic.compare_and_set slot n mine then mine
      else miss t slot ~node ~level ~deadline tries seen since
    end
    else if t.lease > 0 then begin
      let now = R.monotonic_ns () in
      if seen == n then
        if now - since > t.lease then begin
          (* Holder exceeded its lease: presume it dead and take the
             lock directly from its witness. The CAS is the whole
             revocation — from here on the old holder's witnessed
             writes all fail. *)
          let mine = { list = n.list; locked = true; seq = n.seq + 1 } in
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
    let nlist = witness.list in
    let d = T.depth t.tree in
    if T.is_leaf n ~depth:d then ignore (unlock t slot ~witness nlist)
    else begin
      let lslot = T.get_at t.tree ~level:(level + 1) (2 * n)
      and rslot = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let wl = set_lock t lslot ~node:(2 * n) ~level:(level + 1) in
      let wr = set_lock t rslot ~node:((2 * n) + 1) ~level:(level + 1) in
      if head_compare wl.list wr.list <= 0 && head_compare wl.list nlist < 0
      then begin
        (* Swap lists with the left child, which keeps our old list and
           stays locked while we recurse into it — hand-over-hand. The
           child is re-stamped first so that if our own lock on [n] has
           been revoked, the swap aborts with both lists intact. *)
        let wl' = { list = nlist; locked = true; seq = wl.seq + 1 } in
        if restamp t lslot ~witness:wl wl' then begin
          ignore (unlock t rslot ~witness:wr wr.list);
          ignore (unlock t slot ~witness wl.list);
          moundify t (2 * n) ~level:(level + 1) ~witness:wl'
        end
        else begin
          ignore (unlock t rslot ~witness:wr wr.list);
          ignore (unlock t slot ~witness nlist)
        end
      end
      else if
        head_compare wr.list wl.list < 0 && head_compare wr.list nlist < 0
      then begin
        let wr' = { list = nlist; locked = true; seq = wr.seq + 1 } in
        if restamp t rslot ~witness:wr wr' then begin
          ignore (unlock t lslot ~witness:wl wl.list);
          ignore (unlock t slot ~witness wr.list);
          moundify t ((2 * n) + 1) ~level:(level + 1) ~witness:wr'
        end
        else begin
          ignore (unlock t lslot ~witness:wl wl.list);
          ignore (unlock t slot ~witness nlist)
        end
      end
      else begin
        ignore (unlock t slot ~witness nlist);
        ignore (unlock t lslot ~witness:wl wl.list);
        ignore (unlock t rslot ~witness:wr wr.list)
      end
    end

  (** [take t n ~level ~all ~deadline] locks node [n] (level [level]),
      removes its list's head, or the whole list when [all]
      ([extract_many], §V), keeps the node locked and lets [moundify]
      release it (F9–F12); an empty node is just unlocked. Returns the
      witness, whose list is the node's list as it was (its head is the
      element taken), or [gave_up] once [deadline] passes. A revocation
      between acquisition and behead removed nothing, so the take
      retries. *)
  let rec take t n ~level ~all ~deadline =
    let slot = T.get_at t.tree ~level n in
    let w = set_lock_until t slot ~node:n ~level ~deadline in
    if w == gave_up then begin
      bump_timeout t;
      gave_up
    end
    else
      match w.list with
      | [] ->
          ignore (unlock t slot ~witness:w []);
          w
      | _ :: tl ->
          let w' =
            { list = (if all then [] else tl); locked = true; seq = w.seq + 1 }
          in
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

  let extract_min_until t ~deadline =
    let w = take t 1 ~level:0 ~all:false ~deadline in
    if w == gave_up then Intf.Timeout else Intf.Ok (node_value w)

  let extract_min t =
    node_value (take t 1 ~level:0 ~all:false ~deadline:Intf.no_deadline)

  (** Take the root's entire list (§V): identical protocol with the list
      emptied instead of beheaded. *)
  let extract_many t =
    (take t 1 ~level:0 ~all:true ~deadline:Intf.no_deadline).list

  (** Probabilistic extract-min (§V): lock a random node within the first
      [max_level+1] levels and extract its head, which is the minimum of
      the sub-mound rooted there. Falls back to the exact operation on an
      empty probe. *)
  let extract_approx ?(max_level = 2) t =
    let n = T.shallow_node t.tree ~max_level in
    match
      (take t n ~level:(T.level_of n) ~all:false ~deadline:Intf.no_deadline)
        .list
    with
    | [] -> extract_min t
    | x :: _ -> Some x

  (* [ge slot v]: does the node in [slot] dominate [v]? The insert
     search's probe predicate, over [Ord.compare] directly:
     [Intf.Sorted.head_ge] would be a call into another module on every
     probe. *)
  let ge slot v =
    match (R.Atomic.get slot).list with
    | [] -> true
    | x :: _ -> Ord.compare x v >= 0

  (** One publication attempt of the sorted run [hd :: rest]: find a
      candidate for [hd], lock its parent before it (moundify's order,
      F45–F46), re-validate both, and publish [hd] spliced with the
      longest prefix of [rest] that fits the candidate as the unlocking
      write. Returns the candidate's witness, whose list bounds the
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
      else if Intf.Sorted.head_ge Ord.compare w.list hd then
        if
          unlock t cslot ~witness:w
            (hd :: Intf.Sorted.splice Ord.compare rest w.list)
        then w
        else missed
      else begin
        ignore (unlock t cslot ~witness:w w.list);
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
          ignore (unlock t pslot ~witness:wp wp.list);
          bump_timeout t;
          gave_up
        end
        else if
          Intf.Sorted.head_ge Ord.compare wc.list hd
          && Intf.Sorted.head_le Ord.compare wp.list hd
        then begin
          let published =
            unlock t cslot ~witness:wc
              (hd :: Intf.Sorted.splice Ord.compare rest wc.list)
          in
          ignore (unlock t pslot ~witness:wp wp.list);
          if published then wc else missed
        end
        else begin
          ignore (unlock t pslot ~witness:wp wp.list);
          ignore (unlock t cslot ~witness:wc wc.list);
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
            else go (Intf.Sorted.remainder Ord.compare rest w.list) batch_tries
    in
    go batch batch_tries

  let peek_min t =
    let slot = T.get_at t.tree ~level:0 1 in
    let w = set_lock t slot ~node:1 ~level:0 in
    ignore (unlock t slot ~witness:w w.list);
    node_value w

  let is_empty t = peek_min t = None

  (* ----- quiescent introspection ----- *)

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (R.Atomic.get slot).list) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** Quiescent check: sorted lists and the mound property at every
      parent/child pair, and no node locked. *)
  let check t =
    Intf.Sorted.well_formed Ord.compare ~fold:(fold_nodes t) ~parent:(fun p ->
        Some (R.Atomic.get (T.get t.tree p)).list)
    && T.fold t.tree
         (fun ok _ slot -> ok && not (R.Atomic.get slot).locked)
         true
end
