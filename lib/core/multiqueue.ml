(** Relaxed MultiQueue front-end over sequential mounds.

    The committed benches show the single shared mound collapsing under
    concurrent [extract_min] — every thread fights over one root. The
    MultiQueue construction (Williams & Sanders, "Engineering
    MultiQueues") side-steps the bottleneck by relaxing the contract:
    [c·P] independent queues, inserts spread across them, and
    [extract_min] popping the smaller-topped of {e two} randomly sampled
    queues. The returned element is the minimum of a sampled queue, not
    of the whole structure; how far from the global minimum it ranks is
    a measured quantity ([Harness.Rank_exp]), not a promise.

    Design notes:

    - Each inner queue is a {!Seq_mound} behind a single-word try-lock.
      Operations hold exactly one lock at a time, so there is no lock
      ordering to get wrong and a crashed holder stalls only its own
      queue.
    - Each queue's top key is cached in a dedicated atomic, republished
      before every unlock. Two-choice sampling reads only these cached
      tops; whenever a lock is observed free the cached top is exact.
    - Stickiness: a domain re-uses its last insert queue (and its last
      delete pair) for [stickiness] consecutive operations before
      re-rolling, amortizing cache traffic; [insert_many] splices a whole
      sorted batch into the one sticky queue.
    - A global element counter makes emptiness exact: [extract_min]
      returns [None] only after a full scan finds nothing {e and} the
      counter reads zero. Linearizing inserts at their increment and
      extractions at their decrement (both inside the owning critical
      section) makes the counter equal the abstract size at every
      instant, so a zero read is a sound linearization point for
      [None] — emptiness is the one thing this structure does {e not}
      relax.
    - Retry paths (lock failover, the empty/busy rescan) rotate
      deterministically and draw no randomness; the thread-local PRNG is
      consumed only when a sticky assignment expires. Liveness
      certification needs revisitable states, and a PRNG draw inside a
      retry loop would make every spin look like fresh progress. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module Q = Seq_mound.Make (Ord)

  type elt = Ord.t

  (* Same line-spacing discipline as [Tree]: 64-byte lines, one word of
     block header. *)
  let pad_words = 7

  (* One inner queue. The try-lock word and the cached-top word are the
     two contended atomics; live pad blocks keep them (and the cold
     mound pointer) off each other's cache lines. *)
  type cell = {
    lock : bool R.Atomic.t;
    pad_lock : int array;
    top : elt option R.Atomic.t;  (* exact whenever [lock] is free *)
    pad_top : int array;
    q : Q.t;
  }

  (* Sticky-choice state is per-domain heuristic data reached through
     [self () mod slot_count]: a hash collision (or a torn read after
     one) only changes which queue a domain prefers next, never what
     the structure contains; racy by contract, like [Stats.Ops]. *)
  type slot = {
    (* lint: allow — one domain's private counters: fields sharing a
       cache line here is locality, not false sharing *)
    mutable ins_q : int;  (* sticky insert queue *)
    mutable ins_left : int;  (* inserts before re-rolling [ins_q] *)
    mutable del_a : int;  (* sticky delete pair *)
    mutable del_b : int;
    mutable del_left : int;
    pad_slot : int array;  (* keep neighbouring slots off one line *)
  }

  type t = {
    cells : cell array;
    slots : slot array;
    size : int R.Atomic.t;  (* exact element count; see emptiness note *)
    stickiness : int;
    ops : Stats.Ops.t;
  }

  let vcompare = Intf.Value.compare Ord.compare

  let slot_count = 64

  (* Mirrors [Lock_mound]: spin stretches beyond this are counted as
     livelock near misses. *)
  let near_miss_spins = 64

  let create ?(c = 2) ?(stickiness = 8) ?(seed = 1L) ?queues
      ~domains () =
    if domains < 1 then invalid_arg "Mound.Multiqueue.create: bad domains";
    if c < 1 then invalid_arg "Mound.Multiqueue.create: bad c";
    if stickiness < 1 then
      invalid_arg "Mound.Multiqueue.create: bad stickiness";
    let nq = match queues with Some n -> n | None -> c * domains in
    if nq < 1 then invalid_arg "Mound.Multiqueue.create: bad queue count";
    (* derive inner seeds before [Array.init]: its application order is
       unspecified, and the per-queue seeds must not depend on it *)
    let sm = Prng.Splitmix64.create seed in
    let seeds = Array.make nq 0L in
    for i = 0 to nq - 1 do
      seeds.(i) <- Prng.Splitmix64.next sm
    done;
    let cells =
      Array.init nq (fun i ->
          {
            lock = R.Atomic.make false;
            pad_lock = Array.make pad_words 0;
            top = R.Atomic.make None;
            pad_top = Array.make pad_words 0;
            q = Q.create ~seed:seeds.(i) ();
          })
    in
    let slots =
      Array.init slot_count (fun _ ->
          {
            ins_q = 0;
            ins_left = 0;
            del_a = 0;
            del_b = 0;
            del_left = 0;
            pad_slot = Array.make pad_words 0;
          })
    in
    {
      cells;
      slots;
      size = R.Atomic.make 0;
      stickiness;
      ops = Stats.Ops.create ();
    }

  let ops t = t.ops

  let slot_for t = t.slots.(R.self () mod slot_count)

  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  (* Republish the cached top, then release. This order is what makes
     [top] exact under a free lock: any thread that later observes the
     lock free also observes a top written after our last mutation. *)
  let unlock cell =
    R.Atomic.set cell.top (Q.peek_min cell.q);
    R.Atomic.set cell.lock false

  (* --- sticky choice ------------------------------------------------ *)

  let sticky_ins t slot =
    if slot.ins_left <= 0 then begin
      slot.ins_q <- R.rand_int (Array.length t.cells);
      slot.ins_left <- t.stickiness
    end;
    slot.ins_left <- slot.ins_left - 1;
    slot.ins_q

  let sticky_del t slot =
    if slot.del_left <= 0 then begin
      let nq = Array.length t.cells in
      slot.del_a <- R.rand_int nq;
      slot.del_b <- R.rand_int nq;
      slot.del_left <- t.stickiness
    end;
    slot.del_left <- slot.del_left - 1;
    (slot.del_a, slot.del_b)

  (* --- insert ------------------------------------------------------- *)

  (* Acquire some queue's lock, preferring [i]: one CAS on the sticky
     queue, then a deterministic rotation over the others (no PRNG in
     the retry path). Returns the acquired index, or [None] on deadline
     expiry. An unbounded acquire always terminates as long as some
     holder keeps releasing: every rotation retries all [nq] locks. *)
  let rec acquire t i tries ~deadline =
    if R.Atomic.compare_and_set t.cells.(i).lock false true then Some i
    else begin
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      if tries = near_miss_spins then
        t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
      if expired ~deadline then None
      else begin
        let nq = Array.length t.cells in
        if (tries + 1) mod nq = 0 then R.cpu_relax ();
        acquire t ((i + 1) mod nq) (tries + 1) ~deadline
      end
    end

  (* Publish the sorted run [hd :: rest] into one queue: acquire the
     sticky queue (failing over by rotation), splice the run into its
     mound in one critical section, so [Seq_mound]'s prefix splicing
     amortizes probing over the run, and count it. *)
  let put t ~deadline hd rest =
    let slot = slot_for t in
    let start = sticky_ins t slot in
    match acquire t start 0 ~deadline with
    | None ->
        t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1;
        Intf.Timeout
    | Some i ->
        if i <> start then begin
          (* failed over: stick to the queue we actually acquired *)
          slot.ins_q <- i;
          t.ops.insert_retries <- t.ops.insert_retries + 1
        end;
        let cell = t.cells.(i) in
        Q.put cell.q hd rest;
        ignore (R.Atomic.fetch_and_add t.size (1 + List.length rest));
        unlock cell;
        Intf.Ok ()

  let insert_until t ~deadline v = put t ~deadline v []

  let insert t v =
    match insert_until t ~deadline:Intf.no_deadline v with
    | Intf.Ok () -> ()
    | Timeout | Rejected -> assert false (* no deadline: acquire never gives up *)

  (** Insert a {e sorted} batch into the sticky queue in one critical
      section. *)
  let insert_many t = function
    | [] -> ()
    | hd :: rest -> (
        match put t ~deadline:Intf.no_deadline hd rest with
        | Intf.Ok () -> ()
        | Timeout | Rejected -> assert false (* no deadline *))

  (* --- extract ------------------------------------------------------ *)

  (* What one locked take removes from a queue's mound: the root's head,
     the root's whole list ([extract_many]), or the head of a shallow
     node the mound probes ([extract_approx]). *)
  type pick = Head | Whole | Probe of int

  (* Take from queue [i] under its try-lock and count what left; returns
     the list taken from (its head is the element taken), or [] when
     the lock is busy or the queue empty. *)
  let take_at t i pick =
    let cell = t.cells.(i) in
    if not (R.Atomic.compare_and_set cell.lock false true) then begin
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      []
    end
    else begin
      let l =
        match pick with
        | Head -> Q.take cell.q 1 ~level:0 ~all:false
        | Whole -> Q.take cell.q 1 ~level:0 ~all:true
        | Probe max_level -> Q.take_approx cell.q ~max_level
      in
      (match (l, pick) with
      | [], _ -> ()
      | _, Whole -> ignore (R.Atomic.fetch_and_add t.size (-List.length l))
      | _, (Head | Probe _) -> ignore (R.Atomic.fetch_and_add t.size (-1)));
      unlock cell;
      l
    end

  (* [take_at], skipping a queue whose lock is free and whose cached top
     is empty. The shortcut can race an in-flight publish and miss a
     just-filled queue; the counter-guarded rescan in [scan] re-examines
     it. *)
  let sample t i pick =
    let cell = t.cells.(i) in
    if R.Atomic.get cell.top = None && not (R.Atomic.get cell.lock) then []
    else take_at t i pick

  (* Deterministic rotation over every queue, restarted while the size
     counter says elements remain. Terminates with [Ok []] only on a
     zero counter read — the sound emptiness point — and with [Timeout]
     once the deadline passes. No randomness is drawn here. *)
  let rec scan t i left rounds pick ~deadline =
    if left = 0 then begin
      if R.Atomic.get t.size = 0 then Intf.Ok []
      else if expired ~deadline then begin
        t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1;
        Intf.Timeout
      end
      else begin
        t.ops.extract_retries <- t.ops.extract_retries + 1;
        if rounds = near_miss_spins then
          t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
        R.cpu_relax ();
        scan t i (Array.length t.cells) (rounds + 1) pick ~deadline
      end
    end
    else
      match sample t i pick with
      | [] ->
          scan t ((i + 1) mod Array.length t.cells) (left - 1) rounds pick
            ~deadline
      | l -> Intf.Ok l

  (* Two-choice take (Williams & Sanders): [pick] from the sampled queue
     with the smaller cached top ([None] is +∞), then the other; when
     both are empty or busy, re-roll on the next op and decide emptiness
     by the full counter-guarded rotation. *)
  let two_choice t pick ~deadline =
    let slot = slot_for t in
    let a, b = sticky_del t slot in
    let ta = R.Atomic.get t.cells.(a).top
    and tb = R.Atomic.get t.cells.(b).top in
    let first, second = if vcompare ta tb <= 0 then (a, b) else (b, a) in
    match sample t first pick with
    | [] -> (
        match if second <> first then sample t second pick else [] with
        | [] ->
            slot.del_left <- 0;
            let nq = Array.length t.cells in
            scan t ((first + 1) mod nq) nq 0 pick ~deadline
        | l -> Intf.Ok l)
    | l -> Intf.Ok l

  let extract_min_until t ~deadline =
    match two_choice t Head ~deadline with
    | Intf.Ok l -> Intf.Ok (Intf.Sorted.value l)
    | (Timeout | Rejected) as r -> r

  let extract_min t =
    match two_choice t Head ~deadline:Intf.no_deadline with
    | Intf.Ok l -> Intf.Sorted.value l
    | Timeout | Rejected -> assert false (* no deadline: scan never gives up *)

  (* Take one queue's whole root list: the relaxed analogue of the
     paper's extract-many (its head is that queue's minimum, not
     necessarily the global one). Same two-choice + counter-guarded
     rotation as [extract_min], so an empty result means an observed
     empty structure. *)
  let extract_many t =
    match two_choice t Whole ~deadline:Intf.no_deadline with
    | Intf.Ok l -> l
    | Timeout | Rejected -> assert false (* no deadline: scan never gives up *)

  (* Doubly approximate: sample one sticky queue, then let the inner
     mound's probabilistic extract pick a near-minimum within it. Busy
     or empty samples fall back to the exact (still rank-relaxed)
     [extract_min]. *)
  let extract_approx ?(max_level = 2) t =
    let a, b = sticky_del t (slot_for t) in
    let pick = Probe max_level in
    match take_at t a pick with
    | x :: _ -> Some x
    | [] -> (
        match if b <> a then take_at t b pick else [] with
        | x :: _ -> Some x
        | [] -> extract_min t)

  (* --- observers ---------------------------------------------------- *)

  let peek_min t =
    Array.fold_left
      (fun acc cell ->
        let v = R.Atomic.get cell.top in
        if vcompare v acc < 0 then v else acc)
      None t.cells

  let is_empty t = R.Atomic.get t.size = 0

  let size t = R.Atomic.get t.size

  let depth t =
    Array.fold_left (fun acc cell -> max acc (Q.depth cell.q)) 0 t.cells

  (* Node indices repeat across the inner mounds (each is its own
     1-based tree); [Stats.compute] aggregates per level, which stays
     meaningful as a per-level aggregate across all queues. *)
  let fold_nodes t f acc =
    Array.fold_left (fun acc cell -> Q.fold_nodes cell.q f acc) acc t.cells

  (* Quiescent invariants: every lock free, every inner mound valid,
     every cached top exact, and the global counter equal to the sum of
     inner sizes. *)
  let check t =
    let ok = ref true in
    let total = ref 0 in
    Array.iter
      (fun cell ->
        ok :=
          !ok
          && (not (R.Atomic.get cell.lock))
          && Q.check cell.q
          && vcompare (R.Atomic.get cell.top) (Q.peek_min cell.q) = 0;
        total := !total + Q.size cell.q)
      t.cells;
    !ok && !total = R.Atomic.get t.size
end
