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

    - Each inner queue is a {!Seq_mound} behind a single-word try-lock
      whose word is also the queue's version: even means free, the
      try-lock CASes an even [v] to [v + 1], and the release adds 1, so
      the word only grows. Operations hold exactly one lock at a time,
      so there is no lock ordering to get wrong and a crashed holder
      stalls only its own queue.
    - Each queue's root list is cached in a dedicated atomic, republished
      before every release. Two-choice sampling reads only these cached
      tops; whenever a lock is observed free the cached top is exact.
    - Stickiness: a domain re-uses its last insert queue (and its last
      delete pair) for [stickiness] consecutive operations before
      re-rolling, amortizing cache traffic; [insert_many] splices a whole
      sorted batch into the one sticky queue.
    - No shared counter: an operation touches only the queues it
      samples. Inserts and extractions linearize at their release, and
      [None] is answered only on a certificate (DESIGN.md §13.2): a
      first pass finds every lock word even and every cached top empty,
      and a second pass reads the same words, so every queue was free
      and empty at one common instant, between the passes — emptiness
      is the one thing this structure does {e not} relax.
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
    lock : int R.Atomic.t;  (* the queue's version: even when free *)
    pad_lock : int array;
    top : elt list R.Atomic.t;  (* [q]'s root list, exact when [lock] is even *)
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
    stickiness : int;
    ops : Stats.Ops.t;
  }

  (* [val(a) <= val(b)] for cached root lists, [] being +∞. *)
  let head_le a b =
    match (a, b) with
    | _, [] -> true
    | [], _ :: _ -> false
    | x :: _, y :: _ -> Ord.compare x y <= 0

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
            lock = R.Atomic.make 0;
            pad_lock = Array.make pad_words 0;
            top = R.Atomic.make [];
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
    { cells; slots; stickiness; ops = Stats.Ops.create () }

  let ops t = t.ops

  let slot_for t = t.slots.(R.self () mod slot_count)

  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  (* Republish the cached root list, then release: the add makes the
     word even again, one version past the acquiring CAS's. This order is
     what makes [top] exact under a free lock: any thread that later
     observes the lock free also observes a top written after our last
     mutation. The release is the critical section's linearization
     point. *)
  let unlock cell =
    R.Atomic.set cell.top (Q.T.get_at cell.q.Q.tree ~level:0 1);
    ignore (R.Atomic.fetch_and_add cell.lock 1)

  (* --- sticky choice ------------------------------------------------ *)

  let sticky_ins t slot =
    if slot.ins_left <= 0 then begin
      slot.ins_q <- R.rand_int (Array.length t.cells);
      slot.ins_left <- t.stickiness
    end;
    slot.ins_left <- slot.ins_left - 1;
    slot.ins_q

  (* Advance the sticky delete pair; the caller reads it back from
     [slot.del_a] and [slot.del_b]. *)
  let sticky_del t slot =
    if slot.del_left <= 0 then begin
      let nq = Array.length t.cells in
      slot.del_a <- R.rand_int nq;
      slot.del_b <- R.rand_int nq;
      slot.del_left <- t.stickiness
    end;
    slot.del_left <- slot.del_left - 1

  (* --- insert ------------------------------------------------------- *)

  (* Acquire some queue's lock, preferring [i]: one try-lock on the
     sticky queue, then a deterministic rotation over the others (no
     PRNG in the retry path). Returns the acquired index, or -1 on
     deadline expiry. An unbounded acquire always terminates as long as
     some holder keeps releasing: every rotation retries all [nq]
     locks. *)
  let rec acquire t i tries ~deadline =
    let v = R.Atomic.get t.cells.(i).lock in
    if v land 1 = 0 && R.Atomic.compare_and_set t.cells.(i).lock v (v + 1)
    then i
    else begin
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      if tries = near_miss_spins then
        t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
      if expired ~deadline then -1
      else begin
        let nq = Array.length t.cells in
        if (tries + 1) mod nq = 0 then R.cpu_relax ();
        acquire t ((i + 1) mod nq) (tries + 1) ~deadline
      end
    end

  (* Publish the sorted run [hd :: rest] into one queue: acquire the
     sticky queue (failing over by rotation) and splice the run into its
     mound in one critical section, so [Seq_mound]'s prefix splicing
     amortizes probing over the run. *)
  let put t ~deadline hd rest =
    let slot = slot_for t in
    let start = sticky_ins t slot in
    let i = acquire t start 0 ~deadline in
    if i < 0 then begin
      t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1;
      Intf.Timeout
    end
    else begin
      if i <> start then begin
        (* failed over: stick to the queue we actually acquired *)
        slot.ins_q <- i;
        t.ops.insert_retries <- t.ops.insert_retries + 1
      end;
      let cell = t.cells.(i) in
      Q.put cell.q hd rest;
      unlock cell;
      Intf.Ok ()
    end

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

  (* Take from queue [i] under its try-lock; returns the list taken
     from (its head is the element taken), or [] when the lock is busy
     or the queue empty. *)
  let take_at t i pick =
    let cell = t.cells.(i) in
    let v = R.Atomic.get cell.lock in
    if v land 1 = 1 || not (R.Atomic.compare_and_set cell.lock v (v + 1))
    then begin
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
      unlock cell;
      l
    end

  (* [take_at], skipping a queue whose lock is free and whose cached top
     is empty. The shortcut can race an in-flight publish and miss a
     just-filled queue; the certified rescan in [scan] re-examines it. *)
  let sample t i pick =
    let cell = t.cells.(i) in
    match R.Atomic.get cell.top with
    | [] when R.Atomic.get cell.lock land 1 = 0 -> []
    | _ -> take_at t i pick

  (* The emptiness certificate's two passes over the lock words from
     queue [i] on. [free_and_empty] requires every word even and every
     cached top empty, reading each top after its word, and returns the
     words' sum, or -1 at the first busy or nonempty queue; [version_sum]
     sums the words again. *)
  let rec free_and_empty cells i sum =
    if i = Array.length cells then sum
    else
      let cell = cells.(i) in
      let w = R.Atomic.get cell.lock in
      if w land 1 = 1 then -1
      else
        match R.Atomic.get cell.top with
        | [] -> free_and_empty cells (i + 1) (sum + w)
        | _ :: _ -> -1

  let rec version_sum cells i sum =
    if i = Array.length cells then sum
    else version_sum cells (i + 1) (sum + R.Atomic.get cells.(i).lock)

  (* Words only grow, so equal sums mean no word moved between its two
     reads: every queue was free, with the empty root its last release
     published, from the end of the first pass to the start of the
     second. Every operation linearizes at its release, so the
     structure was empty at that instant (DESIGN.md §13.2). *)
  let certified_empty t =
    let s = free_and_empty t.cells 0 0 in
    s >= 0 && version_sum t.cells 0 0 = s

  (* Deterministic rotation over every queue, restarted until the
     emptiness certificate holds. Terminates with [Ok []] only on a
     certificate — the sound emptiness point — and with [Timeout] once
     the deadline passes. No randomness is drawn here. *)
  let rec scan t i left rounds pick ~deadline =
    if left = 0 then begin
      if certified_empty t then Intf.Ok []
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
     with the smaller cached top ([] is +∞), then the other; when both
     are empty or busy, re-roll on the next op and decide emptiness by
     the full certified rotation. *)
  let two_choice t pick ~deadline =
    let slot = slot_for t in
    sticky_del t slot;
    let a = slot.del_a and b = slot.del_b in
    let ta = R.Atomic.get t.cells.(a).top
    and tb = R.Atomic.get t.cells.(b).top in
    let first, second = if head_le ta tb then (a, b) else (b, a) in
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
     necessarily the global one). Same two-choice + certified rotation
     as [extract_min], so an empty result means a certified empty
     structure. *)
  let extract_many t =
    match two_choice t Whole ~deadline:Intf.no_deadline with
    | Intf.Ok l -> l
    | Timeout | Rejected -> assert false (* no deadline: scan never gives up *)

  (* Doubly approximate: sample one sticky queue, then let the inner
     mound's probabilistic extract pick a near-minimum within it. Busy
     or empty samples fall back to the exact (still rank-relaxed)
     [extract_min]. *)
  let extract_approx ?(max_level = 2) t =
    let slot = slot_for t in
    sticky_del t slot;
    let a = slot.del_a and b = slot.del_b in
    let pick = Probe max_level in
    match take_at t a pick with
    | x :: _ -> Some x
    | [] -> (
        match if b <> a then take_at t b pick else [] with
        | x :: _ -> Some x
        | [] -> extract_min t)

  (* --- observers ---------------------------------------------------- *)

  let peek_min t =
    Intf.Sorted.value
      (Array.fold_left
         (fun acc cell ->
           let l = R.Atomic.get cell.top in
           if head_le acc l then acc else l)
         [] t.cells)

  (* Queue [cell] seen free and nonempty: its word unchanged across the
     read of a nonempty top. *)
  let holds cell =
    let w = R.Atomic.get cell.lock in
    w land 1 = 0
    && (match R.Atomic.get cell.top with [] -> false | _ :: _ -> true)
    && R.Atomic.get cell.lock = w

  (* Exact: [true] on the emptiness certificate, [false] once some queue
     is seen free and nonempty; a busy queue is waited out. *)
  let rec is_empty t =
    if certified_empty t then true
    else if Array.exists holds t.cells then false
    else begin
      R.cpu_relax ();
      is_empty t
    end

  let size t = Array.fold_left (fun acc cell -> acc + Q.size cell.q) 0 t.cells

  let depth t =
    Array.fold_left (fun acc cell -> max acc (Q.depth cell.q)) 0 t.cells

  (* Node indices repeat across the inner mounds (each is its own
     1-based tree); [Stats.compute] aggregates per level, which stays
     meaningful as a per-level aggregate across all queues. *)
  let fold_nodes t f acc =
    Array.fold_left (fun acc cell -> Q.fold_nodes cell.q f acc) acc t.cells

  (* Quiescent invariants: every lock free, every inner mound valid, and
     every cached top its mound's root list itself. *)
  let check t =
    Array.for_all
      (fun cell ->
        R.Atomic.get cell.lock land 1 = 0
        && Q.check cell.q
        && R.Atomic.get cell.top == Q.T.get_at cell.q.Q.tree ~level:0 1)
      t.cells
end
