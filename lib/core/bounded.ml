(** Bounded admission front-end: backpressure and shedding over any mound.

    A mound accepts unbounded traffic; under sustained overload that
    means unbounded memory and collapsing latency. [Bounded.Make (R)]
    wraps any queue (anything providing the {!type-ops} record — the
    three mound variants, or a [Keyed] map) with a capacity watermark and
    a pluggable policy for what happens to arrivals beyond it:

    - {!Reject}: refuse the new element ([Rejected]), counting it;
    - {!Shed}: evict a probably-low-priority victim via the underlying
      [extract_approx] probed {e deep} — in a min-queue the mound
      property pushes large (low-priority) values away from the root, so
      a deep probe sheds cheap, unimportant work to make room;
    - {!Block}: wait (politely spinning) until the queue drains below the
      watermark, bounded by the caller's deadline in the [_until]
      variants.

    Occupancy is tracked with a single [fetch_and_add] counter reserved
    {e before} touching the structure — cheap, approximate (an in-flight
    failed insert briefly inflates it), and never requiring the O(N)
    [size] walk. Shed / rejected / timeout events are counted in the
    wrapper's own {!Stats.Ops} record. *)

module Make (R : Runtime.S) = struct
  type policy = Reject | Shed | Block

  (** The operations [Bounded] needs from the wrapped queue, as a plain
      record so one functor application serves every structure (the
      mounds are functors themselves; a record dodges a functor-of-
      functors tangle and lets baselines participate too). *)
  type ('q, 'elt) ops = {
    insert_until : 'q -> deadline:int -> 'elt -> unit Intf.outcome;
    extract_min : 'q -> 'elt option;
    extract_min_until : 'q -> deadline:int -> 'elt option Intf.outcome;
    extract_approx : max_level:int -> 'q -> 'elt option;
  }

  type ('q, 'elt) t = {
    q : 'q;
    ops : ('q, 'elt) ops;
    capacity : int;
    policy : policy;
    occupancy : int R.Atomic.t;
    counters : Stats.Ops.t;
  }

  (* Deep enough that a probe lands well below the root on any loaded
     mound (levels 0..6 span 127 nodes), so shedding rarely steals the
     minimum; harmlessly clamped by extract_approx on shallow trees. *)
  let shed_probe_level = 6

  (* Bounded eviction attempts before an over-capacity insert under
     [Shed] is admitted anyway: occupancy is approximate, so "full with
     nothing to evict" is possible and must not loop. *)
  let shed_tries = 4

  let make ~ops ~capacity ~policy q =
    {
      q;
      ops;
      capacity = max 1 capacity;
      policy;
      occupancy = R.Atomic.make 0;
      counters = Stats.Ops.create ();
    }

  let capacity t = t.capacity

  let policy t = t.policy

  (** Shed / rejected / timeout counters of the front-end itself (the
      wrapped structure keeps its own). *)
  let counters t = t.counters

  (** Approximate occupancy — the admission counter, not an O(N) walk. *)
  let size t = R.Atomic.get t.occupancy

  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  (* Reserve a slot below the watermark: the admission decision is one
     fetch_and_add, undone if the watermark was crossed. *)
  let admit t =
    if R.Atomic.fetch_and_add t.occupancy 1 < t.capacity then true
    else begin
      ignore (R.Atomic.fetch_and_add t.occupancy (-1));
      false
    end

  let release t = ignore (R.Atomic.fetch_and_add t.occupancy (-1))

  (* Evict one probably-low-priority element to make room. [false] means
     the probe found nothing to evict (occupancy is approximate). *)
  let shed_one t =
    match t.ops.extract_approx ~max_level:shed_probe_level t.q with
    | Some _ ->
        t.counters.shed <- t.counters.shed + 1;
        release t;
        true
    | None -> false

  let rec insert_until t ~deadline v =
    if admit t then begin
      (* the slot is reserved; a Timeout below must hand it back *)
      match t.ops.insert_until t.q ~deadline v with
      | Intf.Ok () -> Intf.Ok ()
      | (Intf.Timeout | Intf.Rejected) as r ->
          release t;
          if r = Intf.Timeout then
            t.counters.deadline_timeouts <- t.counters.deadline_timeouts + 1;
          r
    end
    else
      match t.policy with
      | Reject ->
          t.counters.rejected <- t.counters.rejected + 1;
          Intf.Rejected
      | Shed ->
          let rec evict tries =
            if admit t then true
            else if tries > 0 && shed_one t then evict (tries - 1)
            else false
          in
          if not (evict shed_tries) then
            (* force-reserve over the watermark rather than drop the
               arrival when eviction found nothing: occupancy is a
               watermark, not a hard invariant *)
            ignore (R.Atomic.fetch_and_add t.occupancy 1);
          (match t.ops.insert_until t.q ~deadline v with
          | Intf.Ok () -> Intf.Ok ()
          | (Intf.Timeout | Intf.Rejected) as r ->
              release t;
              if r = Intf.Timeout then
                t.counters.deadline_timeouts <- t.counters.deadline_timeouts + 1;
              r)
      | Block ->
          if expired ~deadline then begin
            t.counters.deadline_timeouts <- t.counters.deadline_timeouts + 1;
            Intf.Timeout
          end
          else begin
            R.cpu_relax ();
            insert_until t ~deadline v
          end

  let insert t v = insert_until t ~deadline:Intf.no_deadline v

  let extract_min_until t ~deadline =
    match t.ops.extract_min_until t.q ~deadline with
    | Intf.Ok (Some v) ->
        release t;
        Intf.Ok (Some v)
    | Intf.Ok None -> Intf.Ok None
    | (Intf.Timeout | Intf.Rejected) as r ->
        if r = Intf.Timeout then
          t.counters.deadline_timeouts <- t.counters.deadline_timeouts + 1;
        r

  let extract_min t =
    match t.ops.extract_min t.q with
    | Some v ->
        release t;
        Some v
    | None -> None
end
