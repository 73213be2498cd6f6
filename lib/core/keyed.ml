(** Priority-map adapter: decrease-key on top of a mound.

    Mounds (like most concurrent priority queues) have no native
    decrease-key; the standard workaround — used by the Dijkstra and A*
    examples — is lazy deletion: re-insert the element under its better
    priority and drop stale entries at extraction time. This functor
    packages that pattern as a keyed priority map over the {e sequential}
    mound, for algorithms that want the textbook
    [insert / decrease_key / pop_min] interface.

    Entries are (priority, key) pairs; a hash table tracks each key's
    current best priority. [pop_min] filters entries whose priority no
    longer matches. Stale entries cost O(log N) each at pop time, the
    usual lazy-deletion trade. *)

module Make (P : Intf.ORDERED) (K : Hashtbl.HashedType) = struct
  module Entry = struct
    type t = P.t * K.t

    (* Order by priority only: keys are tie-broken arbitrarily but
       deterministically by insertion order inside the mound's lists. *)
    let compare (p1, _) (p2, _) = P.compare p1 p2
  end

  module Q = Seq_mound.Make (Entry)
  module H = Hashtbl.Make (K)

  type t = { queue : Q.t; best : P.t H.t }

  let create ?seed () = { queue = Q.create ?seed (); best = H.create 64 }

  let mem t k = H.mem t.best k

  let priority t k = H.find_opt t.best k

  (** [insert t k p] adds key [k] at priority [p], or improves its
      priority if [p] is better. Worsening an existing priority is
      ignored; returns [true] when the map changed. *)
  let insert t k p =
    match H.find_opt t.best k with
    | Some cur when P.compare cur p <= 0 -> false
    | _ ->
        H.replace t.best k p;
        Q.insert t.queue (p, k);
        true

  (** [decrease_key t k p] — synonym of {!insert} with intent spelled
      out. *)
  let decrease_key = insert

  (** Remove and return the key with the smallest current priority. *)
  let rec pop_min t =
    match Q.extract_min t.queue with
    | None -> None
    | Some (p, k) -> (
        match H.find_opt t.best k with
        | Some cur when P.compare cur p = 0 ->
            H.remove t.best k;
            Some (k, p)
        | _ -> pop_min t (* stale entry superseded by a decrease_key *))

  (** Deadline-checking {!pop_min} for churn-heavy workloads: lazy
      deletion makes a single pop O(S log N) in the number of stale
      entries [S], so under decrease-key storms even the sequential map
      can blow a latency budget. The deadline ([Runtime.Real.monotonic_ns]
      stamp; [Intf.no_deadline] never expires) is checked between stale
      drops — a fresh head is returned even if it arrives late, so
      [Timeout] always means "gave up while discarding stale entries",
      with the discarded entries genuinely stale (no element is lost). *)
  let rec pop_min_until t ~deadline =
    match Q.extract_min t.queue with
    | None -> Intf.Ok None
    | Some (p, k) -> (
        match H.find_opt t.best k with
        | Some cur when P.compare cur p = 0 ->
            H.remove t.best k;
            Intf.Ok (Some (k, p))
        | _ ->
            (* stale entry superseded by a decrease_key *)
            if
              deadline <> Intf.no_deadline
              && Runtime.Real.monotonic_ns () > deadline
            then Intf.Timeout
            else pop_min_until t ~deadline)

  let rec peek_min t =
    match Q.peek_min t.queue with
    | None -> None
    | Some (p, k) -> (
        match H.find_opt t.best k with
        | Some cur when P.compare cur p = 0 -> Some (k, p)
        | _ ->
            (* drop the stale head and look again *)
            ignore (Q.extract_min t.queue);
            peek_min t)

  let is_empty t = peek_min t = None

  (** Live keys (stale queue entries excluded). *)
  let size t = H.length t.best
end
