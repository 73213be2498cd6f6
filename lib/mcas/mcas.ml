(** Software multi-word compare-and-swap.

    This is the synchronization substrate the paper's lock-free mound
    stands on: commodity hardware (and OCaml's [Atomic]) provides only
    single-word CAS, while Listing 2 of the paper needs DCAS and DCSS. We
    follow the same construction the paper uses — Harris, Fraser & Pratt,
    "A Practical Multi-Word Compare-and-Swap Operation" (DISC 2002):

    - a {e cell} ({!Make.Cell}) is one atomic word holding either a plain
      value or a descriptor left by an in-progress operation;
    - RDCSS (restricted double-compare single-swap) conditionally installs
      a CASN descriptor into one cell, guarded by the operation's status
      word;
    - CASN installs descriptors into all its cells in one global order
      (for lock-freedom), decides the status with a single CAS, and
      writes back final values. Any thread that encounters a descriptor
      helps the operation to completion, so the construction is lock-free:
      a thread can only be delayed by another thread making progress.

    The protocol is written once, over cells, and installs legs in the
    order the caller names them. A {e location} ({!Make.loc}) is a cell
    plus its allocation id; its operations sort their legs by id and call
    the cell operations, so any set of locations is installed in
    allocation order. A client that names its legs in one fixed global
    order of its own (the lock-free mound: parent before child, which is
    the order its cells were allocated in) uses cells directly and saves
    the id record's load on every access.

    Cost structure matters for the evaluation: a DCAS here issues roughly
    five CASes on the uncontended path (two RDCSS installs at two CASes
    each, one status decision) plus two write-back CASes — the "5 CAS per
    DCAS" the paper's §IV compares against fine-grained locking.

    Allocation budget: an uncontended [dcas] or [dcss], on cells or on
    locations, allocates 28 words — the two-leg array (11), the status
    cell (2), the CASN descriptor (3), one RDCSS descriptor per leg
    (2 × 4) and one fresh [V] per written-back leg (2 × 2). The
    descriptors {e are} the installed cell states (inline records of [R]
    and [C]), the legs are checked and ordered with one comparison, and
    the phase loops are top-level functions, so nothing else is
    allocated per call.

    Equality is {e physical} ([==]), as in [Stdlib.Atomic]: users are
    expected to store freshly allocated immutable records, which is also
    what rules out ABA without the paper's version counters. *)

(** Operation statuses are immediate constructors, so physical equality on
    them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (A : Runtime.ATOMIC) = struct
  (* The [R] and [C] blocks are the descriptors themselves: each is
     allocated once, by the thread that starts the RDCSS or CASN, and
     that same block is what gets installed into cells. Every helper
     reads it from a cell, so the CASes that remove a descriptor compare
     against exactly the block they found. *)
  type 'a state =
    | V of 'a
    | R of { casn : 'a state; cell : 'a state A.t; exp : 'a }
        (** RDCSS descriptor: install [casn] (a [C]) over [V exp]. *)
    | C of { status : status A.t; ops : ('a state A.t * 'a * 'a) array }
        (** CASN descriptor; [ops] in install order. *)

  module Cell = struct
    type 'a t = 'a state A.t

    (* Resolve the RDCSS descriptor [r] found in its cell: install the
       CASN descriptor unless the operation already failed, in which case
       the expected value is restored. Every thread that sees the
       descriptor performs this same CAS, so exactly one takes effect.

       The guard is [== Failed], not [== Undecided], deliberately: under
       weak-CAS semantics (the chaos runtime's spurious failures) an RDCSS
       descriptor can linger past a successful decision — the installer's
       completing CAS failed spuriously, nobody else resolved it, and the
       CASN decided [Succeeded] believing the cell installed. Restoring
       [exp] then would undo a committed operation; installing the CASN
       descriptor instead hands the cell to the ordinary write-back/helping
       path. Under strong CAS a descriptor never survives the decision, so
       the two guards are equivalent there. *)
    let rdcss_complete r =
      match r with
      | R { casn = C { status; _ } as casn; cell; exp } ->
          let installed = if A.get status == Failed then V exp else casn in
          ignore (A.compare_and_set cell r installed)
      | V _ | R _ | C _ -> assert false

    (* Attempt to replace [V exp] in [cell] by the CASN descriptor [d],
       provided its status is still undecided. Returns the state that ruled
       the attempt: [V v] with [v == exp] means the descriptor was (or no
       longer needed to be) installed; anything else is what the caller must
       deal with. Each install CAS gets a freshly built RDCSS descriptor,
       so no block is ever installed twice. *)
    let rec rdcss d cell exp =
      let cur = A.get cell in
      match cur with
      | R _ ->
          rdcss_complete cur;
          rdcss d cell exp
      | V v when v == exp ->
          let r = R { casn = d; cell; exp } in
          if A.compare_and_set cell cur r then begin
            rdcss_complete r;
            cur
          end
          else rdcss d cell exp
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
            let cell, exp, n = ops.(i) in
            ignore (A.compare_and_set cell d (V (if success then n else exp)))
          done;
          success
      | V _ | R _ -> assert false

    (* Phase 1: install [d] into [ops.(i)] and every later leg, helping any
       other CASN we trip over. Since all operations install in one global
       order, the one with the first conflicting cell wins and the system
       as a whole makes progress. *)
    and install d ops i =
      if i = Array.length ops then Succeeded
      else
        let cell, exp, _ = ops.(i) in
        match rdcss d cell exp with
        | C _ as d' when d' == d -> install d ops (i + 1)
        | C _ as d' ->
            ignore (casn_help d');
            install d ops i
        | V v when v == exp -> install d ops (i + 1)
        | V _ -> Failed
        | R _ -> assert false

    let start ops = casn_help (C { status = A.make Undecided; ops })

    let make v = A.make (V v)

    let rec get c =
      match A.get c with
      | V v -> v
      | R _ as r ->
          rdcss_complete r;
          get c
      | C _ as d ->
          ignore (casn_help d);
          get c

    let set c v = A.set c (V v)

    let rec cas c exp v =
      let cur = A.get c in
      match cur with
      | V x when x == exp ->
          if A.compare_and_set c cur (V v) then true else cas c exp v
      | V _ -> false
      | R _ ->
          rdcss_complete cur;
          cas c exp v
      | C _ ->
          ignore (casn_help cur);
          cas c exp v

    let casn ops =
      match Array.length ops with
      | 0 -> true
      | 1 ->
          let c, exp, n = ops.(0) in
          cas c exp n
      | k ->
          for i = 1 to k - 1 do
            let a, _, _ = ops.(i) in
            for j = 0 to i - 1 do
              let b, _, _ = ops.(j) in
              if a == b then invalid_arg "Mcas.casn: aliased locations"
            done
          done;
          start (Array.copy ops)

    let dcas c1 e1 n1 c2 e2 n2 =
      if c1 == c2 then invalid_arg "Mcas.dcas: aliased locations"
      else start [| (c1, e1, n1); (c2, e2, n2) |]

    let dcss c1 e1 c2 e2 n2 = dcas c1 e1 e1 c2 e2 n2
  end

  type 'a loc = { cell : 'a Cell.t; id : int }

  (* Allocation order for descriptor installation. Uses the host atomic
     directly (not [A]): location creation is setup, not part of any
     simulated algorithm's hot path. *)
  let next_id = Stdlib.Atomic.make 0 (* lint: allow — setup-only id source *)

  let make v =
    (* lint: allow — id allocation is setup, outside the simulated heap *)
    { cell = Cell.make v; id = Stdlib.Atomic.fetch_and_add next_id 1 }

  let get loc = Cell.get loc.cell

  (** Unconditional store. Only safe when no concurrent operation can hold
      a descriptor in [loc] (initialization, quiescent phases). *)
  let set loc v = Cell.set loc.cell v

  let cas loc exp v = Cell.cas loc.cell exp v

  (** [casn ops] atomically: checks that every [(loc, exp, _)] holds [exp]
      (physically) and, if all do, stores each new value. Locations must
      be distinct; they are installed in allocation order. *)
  let casn ops =
    let ops = Array.copy ops in
    Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a.id b.id) ops;
    Cell.casn (Array.map (fun (l, exp, n) -> (l.cell, exp, n)) ops)

  (** Double compare-and-swap over two distinct locations. The one id
      comparison that puts the legs in allocation order also rejects
      aliased legs. *)
  let dcas l1 e1 n1 l2 e2 n2 =
    if l1.id < l2.id then Cell.dcas l1.cell e1 n1 l2.cell e2 n2
    else if l2.id < l1.id then Cell.dcas l2.cell e2 n2 l1.cell e1 n1
    else invalid_arg "Mcas.dcas: aliased locations"

  (** Double-compare single-swap: writes [l2 <- n2] only if [l1] holds
      [e1] and [l2] holds [e2]. Implemented with a DCAS whose first leg
      rewrites [e1] to itself, exactly as the paper's implementation
      chooses to (§VI-A). *)
  let dcss l1 e1 l2 e2 n2 = dcas l1 e1 e1 l2 e2 n2
end
