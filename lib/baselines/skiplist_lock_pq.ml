(** Skiplist priority queue with fine-grained locking — the original
    Lotan & Shavit design (IPDPS 2000), which the paper cites as the
    lock-based precursor of the non-blocking {!Skiplist_pq}.

    A lazy-locking skiplist (per-node spinlock, [removed] flag) plus
    Lotan–Shavit's extraction protocol: delete-min scans the bottom level
    and claims the first element whose [deleted] flag it can CAS, then
    removes the node level by level under predecessor locks. Like the
    original (and the non-blocking version), the resulting priority queue
    is quiescently consistent, not linearizable.

    Inserts follow the lazy skiplist of Herlihy & Shavit ch. 14, with one
    defensive change: predecessor locks are taken with try-lock and the
    whole acquisition is abandoned and retried on any failure, which
    makes deadlock impossible by construction even with duplicate keys
    (where the book's ordering argument does not directly apply). The
    book's [fullyLinked] flag is the new node's own lock: it is created
    held and released once every level is linked. *)

module Make (R : Runtime.S) (Ord : Mound.Intf.ORDERED) = struct
  module B = Runtime.Backoff.Make (R)

  type elt = Ord.t

  let max_height = 20

  type contents = Head | Item of elt | Tail

  type node = {
    c : contents;
    height : int;
    lock : bool R.Atomic.t;
    removed : bool R.Atomic.t;  (** being physically unlinked *)
    deleted : bool R.Atomic.t;  (** logically extracted (PQ claim) *)
    next : node R.Atomic.t array;  (** length [height] *)
  }

  type t = { head : node; tail : node }

  let create () =
    let tail =
      {
        c = Tail;
        height = 0;
        lock = R.Atomic.make false;
        removed = R.Atomic.make false;
        deleted = R.Atomic.make false;
        next = [||];
      }
    in
    let head =
      {
        c = Head;
        height = max_height;
        lock = R.Atomic.make false;
        removed = R.Atomic.make false;
        deleted = R.Atomic.make false;
        next = Array.init max_height (fun _ -> R.Atomic.make tail);
      }
    in
    { head; tail }

  let node_lt n key =
    match n.c with
    | Head -> true
    | Tail -> false
    | Item x -> Ord.compare x key < 0

  let node_le n key =
    match n.c with
    | Head -> true
    | Tail -> false
    | Item x -> Ord.compare x key <= 0

  let lock_once n = R.Atomic.compare_and_set n.lock false true

  let unlock_node n = R.Atomic.set n.lock false

  (* Randomized backoff after a failed optimistic attempt. Determinism of
     retry timing is exactly what must be avoided: two threads whose
     retries re-align forever livelock under a deterministic scheduler
     (and waste cycles on real hardware). *)
  let backoff () = B.jitter ()

  let random_height () =
    let rec flip h =
      if h >= max_height || R.rand_int 2 = 0 then h else flip (h + 1)
    in
    flip 1

  (* Optimistic search, no locks: fills preds/succs for every level. *)
  let find t key preds succs =
    let pred = ref t.head in
    for lvl = max_height - 1 downto 0 do
      let curr = ref (R.Atomic.get !pred.next.(lvl)) in
      while node_lt !curr key do
        pred := !curr;
        curr := R.Atomic.get !pred.next.(lvl)
      done;
      preds.(lvl) <- !pred;
      succs.(lvl) <- !curr
    done

  let insert t key =
    let h = random_height () in
    let preds = Array.make max_height t.head in
    let succs = Array.make max_height t.head in
    let rec attempt () =
      find t key preds succs;
      (* try-lock the distinct predecessors of levels [0, h); abandon and
         retry on any contention or failed validation *)
      let locked = ref [] in
      let release () = List.iter unlock_node !locked in
      let rec acquire lvl =
        if lvl >= h then true
        else begin
          let pred = preds.(lvl) and succ = succs.(lvl) in
          let got =
            List.memq pred !locked
            ||
            (let ok = lock_once pred in
             if ok then locked := pred :: !locked;
             ok)
          in
          got
          && (not (R.Atomic.get pred.removed))
          && (not (R.Atomic.get succ.removed))
          && R.Atomic.get pred.next.(lvl) == succ
          && acquire (lvl + 1)
        end
      in
      if acquire 0 then begin
        (* born locked, unlocked once linked at every level: the node is
           visible to extract_min from its level-0 link on, and [remove]
           claims it under its lock, so it can never be unlinked before
           it is fully linked (an upper level linked after its unlink
           would stay behind as a removed predecessor that fails every
           later validation) *)
        let node =
          {
            c = Item key;
            height = h;
            lock = R.Atomic.make true;
            removed = R.Atomic.make false;
            deleted = R.Atomic.make false;
            next = Array.init h (fun lvl -> R.Atomic.make succs.(lvl));
          }
        in
        for lvl = 0 to h - 1 do
          R.Atomic.set preds.(lvl).next.(lvl) node
        done;
        release ();
        unlock_node node
      end
      else begin
        release ();
        backoff ();
        attempt ()
      end
    in
    attempt ()

  (* Splice [node] out at one level. Walks from the head through nodes
     with keys <= key (chasing pointer identity through duplicates); if
     the walk passes the key range, the node is already unlinked there. *)
  let unlink_level t node key lvl =
    let rec retry () =
      let rec walk p =
        let nxt = R.Atomic.get p.next.(lvl) in
        if nxt == node then begin
          if lock_once p then begin
            let ok =
              (not (R.Atomic.get p.removed))
              && R.Atomic.get p.next.(lvl) == node
            in
            if ok then R.Atomic.set p.next.(lvl) (R.Atomic.get node.next.(lvl));
            unlock_node p;
            if not ok then begin
              backoff ();
              retry ()
            end
          end
          else begin
            backoff ();
            retry ()
          end
        end
        else if node_le nxt key then walk nxt
        else () (* gone at this level *)
      in
      walk t.head
    in
    retry ()

  (* Physically remove a node we claimed. The [removed] flag (set under
     the node's own lock) gives the unlink job to exactly one thread and
     tells optimistic inserters to re-validate. *)
  let remove t node key =
    let rec claim () =
      if lock_once node then begin
        let mine = not (R.Atomic.get node.removed) in
        if mine then R.Atomic.set node.removed true;
        unlock_node node;
        mine
      end
      else begin
        backoff ();
        claim ()
      end
    in
    if claim () then
      (* top-down, so the node stays reachable below while upper levels
         are cut *)
      for lvl = node.height - 1 downto 0 do
        unlink_level t node key lvl
      done

  (** Lotan–Shavit delete-min: claim the first undeleted element on the
      bottom level via CAS on its [deleted] flag, then unlink it. *)
  let extract_min t =
    let rec scan (curr : node) =
      match curr.c with
      | Tail -> None
      | Head -> scan (R.Atomic.get curr.next.(0))
      | Item key ->
          if
            (not (R.Atomic.get curr.deleted))
            && R.Atomic.compare_and_set curr.deleted false true
          then begin
            remove t curr key;
            Some key
          end
          else scan (R.Atomic.get curr.next.(0))
    in
    scan (R.Atomic.get t.head.next.(0))

  let peek_min t =
    let rec scan (curr : node) =
      match curr.c with
      | Tail -> None
      | Head -> scan (R.Atomic.get curr.next.(0))
      | Item key ->
          if R.Atomic.get curr.deleted then scan (R.Atomic.get curr.next.(0))
          else Some key
    in
    scan t.head

  let is_empty t = peek_min t = None

  (** Undeleted elements on the bottom level, in order (quiescent). *)
  let to_list t =
    let rec go acc (curr : node) =
      match curr.c with
      | Tail -> List.rev acc
      | Head -> go acc (R.Atomic.get curr.next.(0))
      | Item key ->
          let acc = if R.Atomic.get curr.deleted then acc else key :: acc in
          go acc (R.Atomic.get curr.next.(0))
    in
    go [] t.head

  let size t = List.length (to_list t)

  let check t =
    let rec sorted = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> Ord.compare a b <= 0 && sorted rest
    in
    sorted (to_list t)
end
