(** Software multi-word compare-and-swap.

    This is the synchronization substrate the paper's lock-free mound
    stands on: commodity hardware (and OCaml's [Atomic]) provides only
    single-word CAS, while Listing 2 of the paper needs DCAS and DCSS. We
    follow the same construction the paper uses — Harris, Fraser & Pratt,
    "A Practical Multi-Word Compare-and-Swap Operation" (DISC 2002):

    - a {e location} ({!Make.loc}) holds either a plain value or a
      descriptor left by an in-progress operation;
    - RDCSS (restricted double-compare single-swap) conditionally installs
      a CASN descriptor into one location, guarded by the operation's
      status word;
    - CASN installs descriptors into all locations in a global allocation
      order (for lock-freedom), decides the status with a single CAS, and
      writes back final values. Any thread that encounters a descriptor
      helps the operation to completion, so the construction is lock-free:
      a thread can only be delayed by another thread making progress.

    Cost structure matters for the evaluation: a DCAS here issues roughly
    five CASes on the uncontended path (two RDCSS installs at two CASes
    each, one status decision) plus two write-back CASes — the "5 CAS per
    DCAS" the paper's §IV compares against fine-grained locking.

    Allocation budget: an uncontended [dcas] or [dcss] allocates 28 words
    — the two-leg array (11), the status cell (2), the CASN descriptor
    (3), one RDCSS descriptor per leg (2 × 4) and one fresh [V] per
    written-back leg (2 × 2). The descriptors {e are} the installed
    location states (inline records of [R] and [C]), the legs are
    ordered with one id comparison, and the phase loops are top-level
    functions, so nothing else is allocated per call.

    Equality is {e physical} ([==]), as in [Stdlib.Atomic]: users are
    expected to store freshly allocated immutable records, which is also
    what rules out ABA without the paper's version counters. *)

(** Operation statuses are immediate constructors, so physical equality on
    them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (A : Runtime.ATOMIC) = struct
  (* The [R] and [C] blocks are the descriptors themselves: each is
     allocated once, by the thread that starts the RDCSS or CASN, and
     that same block is what gets installed into locations. Every helper
     reads it from a location, so the CASes that remove a descriptor
     compare against exactly the block they found. *)
  type 'a state =
    | V of 'a
    | R of { casn : 'a state; loc : 'a loc; exp : 'a }
        (** RDCSS descriptor: install [casn] (a [C]) over [V exp]. *)
    | C of { status : status A.t; ops : ('a loc * 'a * 'a) array }
        (** CASN descriptor; [ops] in increasing location id order. *)

  and 'a loc = { st : 'a state A.t; id : int }

  (* Allocation order for descriptor installation. Uses the host atomic
     directly (not [A]): location creation is setup, not part of any
     simulated algorithm's hot path. *)
  let next_id = Stdlib.Atomic.make 0 (* lint: allow — setup-only id source *)

  let make v =
    (* lint: allow — id allocation is setup, outside the simulated heap *)
    { st = A.make (V v); id = Stdlib.Atomic.fetch_and_add next_id 1 }

  (* Resolve the RDCSS descriptor [r] found in its location: install the
     CASN descriptor unless the operation already failed, in which case
     the expected value is restored. Every thread that sees the
     descriptor performs this same CAS, so exactly one takes effect.

     The guard is [== Failed], not [== Undecided], deliberately: under
     weak-CAS semantics (the chaos runtime's spurious failures) an RDCSS
     descriptor can linger past a successful decision — the installer's
     completing CAS failed spuriously, nobody else resolved it, and the
     CASN decided [Succeeded] believing the location installed. Restoring
     [exp] then would undo a committed operation; installing the CASN
     descriptor instead hands the location to the ordinary
     write-back/helping path. Under strong CAS a descriptor never
     survives the decision, so the two guards are equivalent there. *)
  let rdcss_complete r =
    match r with
    | R { casn = C { status; _ } as casn; loc; exp } ->
        let installed = if A.get status == Failed then V exp else casn in
        ignore (A.compare_and_set loc.st r installed)
    | V _ | R _ | C _ -> assert false

  (* Attempt to replace [V exp] in [loc] by the CASN descriptor [d],
     provided its status is still undecided. Returns the state that ruled
     the attempt: [V v] with [v == exp] means the descriptor was (or no
     longer needed to be) installed; anything else is what the caller must
     deal with. Each install CAS gets a freshly built RDCSS descriptor,
     so no block is ever installed twice. *)
  let rec rdcss d loc exp =
    let cur = A.get loc.st in
    match cur with
    | R _ ->
        rdcss_complete cur;
        rdcss d loc exp
    | V v when v == exp ->
        let r = R { casn = d; loc; exp } in
        if A.compare_and_set loc.st cur r then begin
          rdcss_complete r;
          cur
        end
        else rdcss d loc exp
    | V _ | C _ -> cur

  (* [casn_help d] drives the CASN descriptor [d] to its decision and
     write-back, and returns whether it succeeded. *)
  let rec casn_help d =
    match d with
    | C { status; ops } ->
        let outcome =
          if A.get status == Undecided then install d ops 0 else A.get status
        in
        (* Decide. Loop rather than fire-and-forget: a spurious failure of
           the decision CAS (weak-CAS semantics) would otherwise leave the
           status [Undecided] while this helper proceeds to restore values
           — and a later helper would then re-execute the whole
           operation. *)
        while A.get status == Undecided do
          ignore (A.compare_and_set status Undecided outcome)
        done;
        let success = A.get status == Succeeded in
        (* Phase 2: write back. Failed helpers' CASes fail harmlessly. *)
        for i = 0 to Array.length ops - 1 do
          let loc, exp, n = ops.(i) in
          ignore
            (A.compare_and_set loc.st d (V (if success then n else exp)))
        done;
        success
    | V _ | R _ -> assert false

  (* Phase 1: install [d] into [ops.(i)] and every later leg, helping any
     other CASN we trip over. Since all operations install in increasing
     location id order, the one with the smallest conflicting location
     wins and the system as a whole makes progress. *)
  and install d ops i =
    if i = Array.length ops then Succeeded
    else
      let loc, exp, _ = ops.(i) in
      match rdcss d loc exp with
      | C _ as d' when d' == d -> install d ops (i + 1)
      | C _ as d' ->
          ignore (casn_help d');
          install d ops i
      | V v when v == exp -> install d ops (i + 1)
      | V _ -> Failed
      | R _ -> assert false

  let start ops = casn_help (C { status = A.make Undecided; ops })

  let rec get loc =
    match A.get loc.st with
    | V v -> v
    | R _ as r ->
        rdcss_complete r;
        get loc
    | C _ as d ->
        ignore (casn_help d);
        get loc

  (** Unconditional store. Only safe when no concurrent operation can hold
      a descriptor in [loc] (initialization, quiescent phases). *)
  let set loc v = A.set loc.st (V v)

  let rec cas loc exp v =
    let cur = A.get loc.st in
    match cur with
    | V x when x == exp ->
        if A.compare_and_set loc.st cur (V v) then true else cas loc exp v
    | V _ -> false
    | R _ ->
        rdcss_complete cur;
        cas loc exp v
    | C _ ->
        ignore (casn_help cur);
        cas loc exp v

  (** [casn ops] atomically: checks that every [(loc, exp, _)] holds [exp]
      (physically) and, if all do, stores each new value. Locations must
      be distinct. *)
  let casn ops =
    match Array.length ops with
    | 0 -> true
    | 1 ->
        let loc, exp, n = ops.(0) in
        cas loc exp n
    | k ->
        let ops = Array.copy ops in
        Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a.id b.id) ops;
        for i = 1 to k - 1 do
          let a, _, _ = ops.(i - 1) and b, _, _ = ops.(i) in
          if a.id = b.id then invalid_arg "Mcas.casn: aliased locations"
        done;
        start ops

  (** Double compare-and-swap over two distinct locations. The one id
      comparison that puts the legs in allocation order also rejects
      aliased legs. *)
  let dcas l1 e1 n1 l2 e2 n2 =
    if l1.id < l2.id then start [| (l1, e1, n1); (l2, e2, n2) |]
    else if l2.id < l1.id then start [| (l2, e2, n2); (l1, e1, n1) |]
    else invalid_arg "Mcas.dcas: aliased locations"

  (** Double-compare single-swap: writes [l2 <- n2] only if [l1] holds
      [e1] and [l2] holds [e2]. Implemented with a DCAS whose first leg
      rewrites [e1] to itself, exactly as the paper's implementation
      chooses to (§VI-A). *)
  let dcss l1 e1 l2 e2 n2 = dcas l1 e1 e1 l2 e2 n2
end
