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

  let node_value n = match n.list with [] -> None | x :: _ -> Some x

  (* The hot paths compare list heads directly instead of boxing them
     with [node_value]: an empty list is ⊤, as [None] is in
     [Intf.Value]. *)
  let head_compare a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> 1
    | _ :: _, [] -> -1
    | x :: _, y :: _ -> Ord.compare x y

  let head_ge l v = match l with [] -> true | x :: _ -> Ord.compare x v >= 0
  let head_le l v = match l with [] -> false | x :: _ -> Ord.compare x v <= 0

  (* What an acquisition returns when it gives up (deadline expiry, or a
     [try_lock] that loses), and the lease timer's "no holder observed
     yet". It is never installed in a slot, so [w == gave_up] holds for
     this record alone. *)
  let gave_up = { list = []; locked = true; seq = -1 }

  let create ?threshold ?init_depth ?(lease = 0) () =
    let make_slot () = R.Atomic.make { list = []; locked = false; seq = 0 } in
    {
      tree = T.create ?threshold ?init_depth make_slot;
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

  let rec extract_min_until t ~deadline =
    let slot = T.get_at t.tree ~level:0 1 in
    let w = set_lock_until t slot ~node:1 ~level:0 ~deadline in
    if w == gave_up then begin
      bump_timeout t;
      Intf.Timeout
    end
    else
      match w.list with
      | [] ->
          ignore (unlock t slot ~witness:w []);
          Intf.Ok None
      | hd :: tl ->
          (* Remove the head, keep the root locked, and let moundify
             release it (F9–F12). *)
          let w' = { list = tl; locked = true; seq = w.seq + 1 } in
          if restamp t slot ~witness:w w' then begin
            moundify t 1 ~level:0 ~witness:w';
            Intf.Ok (Some hd)
          end
          else begin
            (* revoked between acquisition and behead: nothing removed *)
            t.ops.extract_retries <- t.ops.extract_retries + 1;
            if expired ~deadline then begin
              bump_timeout t;
              Intf.Timeout
            end
            else extract_min_until t ~deadline
          end

  let extract_min t =
    match extract_min_until t ~deadline:Intf.no_deadline with
    | Intf.Ok r -> r
    | Timeout | Rejected -> assert false (* no deadline, no admission *)

  (** Take the root's entire list (§V): identical protocol with the list
      emptied instead of beheaded. *)
  let rec extract_many t =
    let slot = T.get_at t.tree ~level:0 1 in
    let w = set_lock t slot ~node:1 ~level:0 in
    match w.list with
    | [] ->
        ignore (unlock t slot ~witness:w []);
        []
    | taken ->
        let w' = { list = []; locked = true; seq = w.seq + 1 } in
        if restamp t slot ~witness:w w' then begin
          moundify t 1 ~level:0 ~witness:w';
          taken
        end
        else begin
          t.ops.extract_retries <- t.ops.extract_retries + 1;
          extract_many t
        end

  (** Probabilistic extract-min (§V): lock a random node within the first
      [max_level+1] levels and extract its head, which is the minimum of
      the sub-mound rooted there. Falls back to the exact operation on an
      empty probe. *)
  let rec extract_approx ?(max_level = 2) t =
    let d = T.depth t.tree in
    let lvl = min max_level (d - 1) in
    let span = (1 lsl (lvl + 1)) - 1 in
    let n = 1 + R.rand_int span in
    let nlvl = T.level_of n in
    let slot = T.get_at t.tree ~level:nlvl n in
    let w = set_lock t slot ~node:n ~level:nlvl in
    match w.list with
    | [] ->
        ignore (unlock t slot ~witness:w []);
        extract_min t
    | hd :: tl ->
        let w' = { list = tl; locked = true; seq = w.seq + 1 } in
        if restamp t slot ~witness:w w' then begin
          moundify t n ~level:nlvl ~witness:w';
          Some hd
        end
        else begin
          t.ops.extract_retries <- t.ops.extract_retries + 1;
          extract_approx ~max_level t
        end

  (* [ge] is built once per [insert] call and reused across retries —
     the validation predicate does not change, so no fresh closure per
     attempt. The deadline bounds both the lock waits and the
     revalidation retries; [Timeout] guarantees [v] was not published. *)
  let rec insert_attempt t v ~ge ~deadline =
    let retry () =
      t.ops.insert_retries <- t.ops.insert_retries + 1;
      if expired ~deadline then begin
        bump_timeout t;
        Intf.Timeout
      end
      else insert_attempt t v ~ge ~deadline
    in
    let c, clvl = T.find_insert_point_lv t.tree ~ge in
    let cslot = T.get_at t.tree ~level:clvl c in
    if c = 1 then begin
      let w = set_lock_until t cslot ~node:1 ~level:0 ~deadline in
      if w == gave_up then begin
        bump_timeout t;
        Intf.Timeout
      end
      else if head_ge w.list v then
        if unlock t cslot ~witness:w (v :: w.list) then Intf.Ok ()
        else retry () (* revoked before publication: not inserted *)
      else begin
        ignore (unlock t cslot ~witness:w w.list);
        retry ()
      end
    end
    else begin
      (* Parent before child, matching moundify's order (F45–F46). *)
      let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
      let wp = set_lock_until t pslot ~node:(c / 2) ~level:(clvl - 1) ~deadline in
      if wp == gave_up then begin
        bump_timeout t;
        Intf.Timeout
      end
      else
        let wc = set_lock_until t cslot ~node:c ~level:clvl ~deadline in
        if wc == gave_up then begin
          ignore (unlock t pslot ~witness:wp wp.list);
          bump_timeout t;
          Intf.Timeout
        end
        else if head_ge wc.list v && head_le wp.list v then begin
          let published = unlock t cslot ~witness:wc (v :: wc.list) in
          ignore (unlock t pslot ~witness:wp wp.list);
          if published then Intf.Ok () else retry ()
        end
        else begin
          ignore (unlock t pslot ~witness:wp wp.list);
          ignore (unlock t cslot ~witness:wc wc.list);
          retry ()
        end
    end

  let insert t v =
    let ge i = head_ge (R.Atomic.get (T.get t.tree i)).list v in
    match insert_attempt t v ~ge ~deadline:Intf.no_deadline with
    | Intf.Ok () -> ()
    | Timeout | Rejected -> assert false (* no deadline, no admission *)

  let insert_until t ~deadline v =
    let ge i = head_ge (R.Atomic.get (T.get t.tree i)).list v in
    insert_attempt t v ~ge ~deadline

  (* Single acquisition attempt: no spinning, no lease accounting.
     Returns the witness, or [gave_up] when the node is held or the CAS
     loses. *)
  let try_lock t slot =
    let n = R.Atomic.get slot in
    if n.locked then begin
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      gave_up
    end
    else
      let mine = { list = n.list; locked = true; seq = n.seq + 1 } in
      if R.Atomic.compare_and_set slot n mine then mine
      else begin
        t.ops.lock_spins <- t.ops.lock_spins + 1;
        gave_up
      end

  (** One bounded pass with try-locks: probe once, acquire without
      spinning, publish or report [false]. Never blocks behind a held
      lock — the admission path the bounded front-end uses. *)
  let try_insert t v =
    let ge i = head_ge (R.Atomic.get (T.get t.tree i)).list v in
    let c, clvl = T.find_insert_point_lv t.tree ~ge in
    let cslot = T.get_at t.tree ~level:clvl c in
    let ok =
      if c = 1 then begin
        let w = try_lock t cslot in
        if w == gave_up then false
        else if head_ge w.list v then unlock t cslot ~witness:w (v :: w.list)
        else begin
          ignore (unlock t cslot ~witness:w w.list);
          false
        end
      end
      else
        let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
        let wp = try_lock t pslot in
        if wp == gave_up then false
        else
          let wc = try_lock t cslot in
          if wc == gave_up then begin
            ignore (unlock t pslot ~witness:wp wp.list);
            false
          end
          else if head_ge wc.list v && head_le wp.list v then begin
            let published = unlock t cslot ~witness:wc (v :: wc.list) in
            ignore (unlock t pslot ~witness:wp wp.list);
            published
          end
          else begin
            ignore (unlock t pslot ~witness:wp wp.list);
            ignore (unlock t cslot ~witness:wc wc.list);
            false
          end
    in
    if not ok then t.ops.rejected <- t.ops.rejected + 1;
    ok

  (* Longest prefix of the sorted batch fitting under [limit] ([None] is
     ⊤), paired with the remainder — same shape as the other variants. *)
  let rec split_prefix limit acc = function
    | x :: rest when Intf.Value.ge_elt Ord.compare limit x ->
        split_prefix limit (x :: acc) rest
    | rest -> (List.rev acc, rest)

  let batch_tries = 4

  (** Insert a {e sorted} batch — the dual of [extract_many]. The batch
      is walked front to back: each round finds the insert point for the
      current head once, then splices the longest prefix that fits that
      node ([val(parent c) <= hd] and every spliced element [<= val(c)])
      under one lock pair — probing and binary search are amortized over
      the whole run instead of paid per element. Under contention the
      head falls back to the element-wise [insert] and batching resumes
      with the remainder. *)
  let insert_many t batch =
    let rec go batch tries =
      match batch with
      | [] -> ()
      | hd :: rest_after_hd ->
          if tries = 0 then begin
            insert t hd;
            go rest_after_hd batch_tries
          end
          else begin
            let ge i = head_ge (R.Atomic.get (T.get t.tree i)).list hd in
            let c, clvl = T.find_insert_point_lv t.tree ~ge in
            let cslot = T.get_at t.tree ~level:clvl c in
            if c = 1 then begin
              let w = set_lock t cslot ~node:1 ~level:0 in
              let limit = node_value w in
              if Intf.Value.ge_elt Ord.compare limit hd then begin
                let prefix, rest = split_prefix limit [] batch in
                if unlock t cslot ~witness:w (prefix @ w.list) then
                  go rest batch_tries
                else go batch (tries - 1)
              end
              else begin
                ignore (unlock t cslot ~witness:w w.list);
                go batch (tries - 1)
              end
            end
            else begin
              let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
              let wp = set_lock t pslot ~node:(c / 2) ~level:(clvl - 1) in
              let wc = set_lock t cslot ~node:c ~level:clvl in
              let limit = node_value wc in
              if
                Intf.Value.ge_elt Ord.compare limit hd && head_le wp.list hd
              then begin
                let prefix, rest = split_prefix limit [] batch in
                let published = unlock t cslot ~witness:wc (prefix @ wc.list) in
                ignore (unlock t pslot ~witness:wp wp.list);
                if published then go rest batch_tries else go batch (tries - 1)
              end
              else begin
                ignore (unlock t pslot ~witness:wp wp.list);
                ignore (unlock t cslot ~witness:wc wc.list);
                go batch (tries - 1)
              end
            end
          end
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

  let rec list_sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Ord.compare a b <= 0 && list_sorted rest

  (** Quiescent check: sorted lists and the mound property at every
      parent/child pair (no node should be locked at a quiescent point). *)
  let check t =
    fold_nodes t
      (fun ok i l ->
        ok && list_sorted l
        && (not (R.Atomic.get (T.get t.tree i)).locked)
        &&
        if i = 1 then true
        else
          Intf.Value.le Ord.compare
            (node_value (R.Atomic.get (T.get t.tree (i / 2))))
            (match l with [] -> None | x :: _ -> Some x))
      true
end
