(** A word-based software transactional memory in the TL2 style
    (Dice, Shalev & Shavit 2006), over a runtime's atomics.

    The paper's introduction cites Dragicevic & Bauer's STM-based
    concurrent heap as prior work whose "overhead of STM resulted in
    unacceptable performance"; this library plus {!Stm_heap} reproduce
    that comparison point. Like TL2 (and like the mound substrate), it is
    word-granular: a {!tvar} holds one [int].

    Algorithm:
    - a global version {e clock};
    - each tvar holds an immutable [{value; version; locked}] record;
    - a transaction records its start clock [rv]; every read checks the
      tvar is unlocked and no newer than [rv] (giving opacity: a live
      transaction never observes an inconsistent snapshot) and is logged;
      writes are buffered;
    - commit locks the write set in tvar-id order (bounded, so deadlock
      free), increments the clock, re-validates the read set, then
      publishes values at the new version and unlocks.

    Conflicts abort and retry with randomized exponential backoff.
    Read-only transactions commit without locking or validation — their
    incremental read checks already guarantee a consistent snapshot.

    This design is {e blocking} (a preempted committer blocks conflicting
    writers), which is precisely the behaviour the evaluation contrasts
    with the lock-free mound. *)

module Make (R : Runtime.S) = struct
  module B = Runtime.Backoff.Make (R)

  type vstate = { value : int; version : int; locked : bool }

  type tvar = { st : vstate R.Atomic.t; id : int }

  (* Transaction-private state. [writes] is kept deduplicated by tvar. *)
  type tx = {
    rv : int;
    (* lint: allow — transaction-private: a [tx] record lives and dies
       on the thread that began it; the read and write sets are never
       shared across domains, so their adjacency cannot false-share *)
    mutable reads : (tvar * int) list;
    mutable writes : (tvar * int) list;
  }

  exception Abort

  (* Both counters use the runtime's atomics: the clock is part of the
     algorithm's shared-memory footprint and must be costed by the
     simulator. The id counter is setup-only but harmless to cost. *)
  let clock = R.Atomic.make 0

  let next_id = Stdlib.Atomic.make 0 (* lint: allow — setup-only id source *)

  let make value =
    {
      st = R.Atomic.make { value; version = 0; locked = false };
      (* lint: allow — id allocation is setup, outside the simulated heap *)
      id = Stdlib.Atomic.fetch_and_add next_id 1;
    }

  (** [read tx tv] — transactional read, with read-own-writes. *)
  let read tx tv =
    match List.find_opt (fun (t, _) -> t == tv) tx.writes with
    | Some (_, v) -> v
    | None ->
        let s = R.Atomic.get tv.st in
        if s.locked || s.version > tx.rv then raise Abort;
        tx.reads <- (tv, s.version) :: tx.reads;
        s.value

  (** [write tx tv v] — buffered transactional write. *)
  let write tx tv v =
    let rec replace = function
      | [] -> [ (tv, v) ]
      | (t, _) :: rest when t == tv -> (tv, v) :: rest
      | e :: rest -> e :: replace rest
    in
    tx.writes <- replace tx.writes

  (* Lock one tvar for commit; returns the observed state for rollback
     bookkeeping. Aborts rather than spinning: TL2 resolves conflicts by
     retrying the whole transaction. *)
  let lock_tvar tv =
    let s = R.Atomic.get tv.st in
    if s.locked then raise Abort;
    if not (R.Atomic.compare_and_set tv.st s { s with locked = true }) then
      raise Abort;
    s

  let unlock_tvar tv (s : vstate) = R.Atomic.set tv.st s

  let commit tx =
    match tx.writes with
    | [] -> () (* read-only: incremental validation already done *)
    | writes ->
        let ws =
          List.sort (fun ((a : tvar), _) (b, _) -> compare a.id b.id) writes
        in
        (* Phase 1: lock the write set in id order. *)
        let locked = ref [] in
        let rollback () =
          List.iter (fun (tv, s) -> unlock_tvar tv s) !locked;
          raise Abort
        in
        List.iter
          (fun (tv, _) ->
            match lock_tvar tv with
            | s -> locked := (tv, s) :: !locked
            | exception Abort -> rollback ())
          ws;
        (* Phase 2: take a commit timestamp. *)
        let wv = R.Atomic.fetch_and_add clock 1 + 1 in
        (* Phase 3: validate the read set: same version as when read, and
           not locked by a competitor (our own locks are fine). *)
        let mine tv = List.exists (fun (t, _) -> t == tv) ws in
        List.iter
          (fun (tv, ver) ->
            let s = R.Atomic.get tv.st in
            if s.version <> ver || (s.locked && not (mine tv)) then rollback ())
          tx.reads;
        (* Phase 4: publish and unlock. *)
        List.iter
          (fun (tv, v) ->
            R.Atomic.set tv.st { value = v; version = wv; locked = false })
          ws

  (** [atomically f] runs [f tx] as a transaction, retrying on conflict
      with randomized exponential backoff. [f] must be pure apart from
      {!read}/{!write} on tvars (it may run multiple times). *)
  let atomically f =
    let rec attempt round =
      let tx = { rv = R.Atomic.get clock; reads = []; writes = [] } in
      match
        let result = f tx in
        commit tx;
        result
      with
      | result -> result
      | exception Abort ->
          (* capped exponential backoff with per-thread jitter *)
          B.exponential round;
          attempt (round + 1)
    in
    attempt 0

  (** Non-transactional read for quiescent inspection. *)
  let peek tv = (R.Atomic.get tv.st).value
end
