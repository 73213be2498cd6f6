(** Software multi-word compare-and-swap.

    This is the synchronization substrate the paper's lock-free mound
    stands on: commodity hardware (and OCaml's [Atomic]) provides only
    single-word CAS, while Listing 2 of the paper needs DCAS and DCSS. We
    follow the same construction the paper uses — Harris, Fraser & Pratt,
    "A Practical Multi-Word Compare-and-Swap Operation" (DISC 2002):

    - a {e cell} ({!Make.Cell}) is one atomic word holding either a
      client's state or a descriptor left by an in-progress operation;
    - RDCSS (restricted double-compare single-swap) conditionally installs
      a CASN descriptor into one cell, guarded by the operation's status
      word;
    - CASN installs descriptors into all its cells in one global order
      (for lock-freedom), decides the status with a single CAS, and
      writes back final values. Any thread that encounters a descriptor
      helps the operation to completion, so the construction is lock-free:
      a thread can only be delayed by another thread making progress.

    The cell state is an open type. The protocol owns its two
    descriptors and [V], the box the location API keeps its values in;
    a client of bare cells declares constructors of its own and stores
    them unboxed, so a read returns the client's record itself (the
    lock-free mound's [Empty]/[Node], one dependent load after the
    cell). Every match on a state names the descriptors inline and
    takes anything else as a value.

    The protocol is written once, over cells, and installs legs in the
    order the caller names them. Each operation records how its legs
    compare ({!expect}): a cell leg expects the state itself, a location
    leg the payload of the [V] box the location holds. A {e location}
    ({!Make.loc}) is a cell plus its allocation id; its operations box
    their new values, sort their legs by id and run the cell protocol
    with payload legs, so any set of locations is installed in
    allocation order. A client that names its legs in one fixed global
    order of its own (the lock-free mound: parent before child, which is
    the order its cells were allocated in) uses cells directly and saves
    the id record's load on every access.

    Cost structure matters for the evaluation: a DCAS here issues roughly
    five CASes on the uncontended path (two RDCSS installs at two CASes
    each, one status decision) plus two write-back CASes — the "5 CAS per
    DCAS" the paper's §IV compares against fine-grained locking.

    Allocation budget: an uncontended [dcas] or [dcss] on cells
    allocates 27 words — the two-leg array (11), the status cell (2), the
    CASN descriptor (4) and one RDCSS descriptor per leg (2 × 5) — and a
    single-cell [cas] allocates nothing. Every descriptor is an extension
    block, one word more than a variant's block: the constructor's slot.
    On locations the same DCAS adds one [V] box per written-back leg
    (2 × 3), 33 words. The descriptors {e are} the installed cell
    states, the legs are checked and ordered with one comparison, and
    the phase loops are top-level functions, so nothing else is
    allocated per call.

    Equality is {e physical} ([==]), as in [Stdlib.Atomic]: users are
    expected to store freshly allocated immutable records, which is also
    what rules out ABA without the paper's version counters. *)

(** Operation statuses are immediate constructors, so physical equality on
    them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (A : Runtime.ATOMIC) = struct
  type 'a state = ..

  (* How a single CAS compares a cell's state with its expected value:
     on a cell, the state itself; on a location, the payload of the [V]
     box holding its value. Both compare physically. Immediate
     constructors, so the witness costs a CAS nothing. *)
  type ('a, 'e) expect =
    | Same : ('a, 'a state) expect
    | Payload : ('a, 'a) expect

  (* A CASN leg: the cell, what it must hold and the state to write. Its
     constructor records how it compares, as {!expect} does for a single
     CAS. *)
  type 'a leg =
    | Same_leg of { cell : 'a state A.t; exp : 'a state; n : 'a state }
    | Payload_leg of { cell : 'a state A.t; exp : 'a; n : 'a state }

  (* The [R] and [C] blocks are the descriptors themselves: each is
     allocated once, by the thread that starts the RDCSS or CASN, and
     that same block is what gets installed into cells. Every helper
     reads it from a cell, so the CASes that remove a descriptor compare
     against exactly the block they found. *)
  type 'a state +=
    | V of 'a  (** A location's value. *)
    | R of { casn : 'a state; cell : 'a state A.t; old : 'a state }
        (** RDCSS descriptor: install [casn] (a [C]) over [old], the state
            it replaced. *)
    | C of { status : status A.t; ops : 'a leg array }
        (** CASN descriptor; [ops] in install order. *)

  let holds : type a e. (a, e) expect -> e -> a state -> bool =
   fun expect exp cur ->
    match expect with
    | Same -> cur == exp
    | Payload -> ( match cur with V v -> v == exp | _ -> false)

  let leg_cell = function Same_leg { cell; _ } | Payload_leg { cell; _ } -> cell

  let leg_holds leg cur =
    match leg with
    | Same_leg { exp; _ } -> holds Same exp cur
    | Payload_leg { exp; _ } -> holds Payload exp cur

  module Cell = struct
    type 'a t = 'a state A.t

    (* Resolve the RDCSS descriptor [r] found in its cell: install the
       CASN descriptor unless the operation already failed, in which case
       the replaced state is restored. Every thread that sees the
       descriptor performs this same CAS, so exactly one takes effect.

       The guard is [== Failed], not [== Undecided], deliberately: under
       weak-CAS semantics (the chaos runtime's spurious failures) an RDCSS
       descriptor can linger past a successful decision — the installer's
       completing CAS failed spuriously, nobody else resolved it, and the
       CASN decided [Succeeded] believing the cell installed. Restoring
       the old state then would undo a committed operation; installing
       the CASN descriptor instead hands the cell to the ordinary
       write-back/helping path. Under strong CAS a descriptor never
       survives the decision, so the two guards are equivalent there. *)
    let rdcss_complete r =
      match r with
      | R { casn = C { status; _ } as casn; cell; old } ->
          let installed = if A.get status == Failed then old else casn in
          ignore (A.compare_and_set cell r installed)
      | _ -> assert false

    (* Attempt to replace the state [leg] expects in [cell] by the CASN
       descriptor [d], provided its status is still undecided. Returns
       [d] once the descriptor is (or no longer needs to be) installed;
       anything else is what the caller must deal with: another CASN's
       descriptor, or a state [leg] does not expect. Each install CAS
       gets a freshly built RDCSS descriptor, so no block is ever
       installed twice. *)
    let rec rdcss d cell leg =
      let cur = A.get cell in
      match cur with
      | R _ ->
          rdcss_complete cur;
          rdcss d cell leg
      | C _ -> cur
      | _ when leg_holds leg cur ->
          let r = R { casn = d; cell; old = cur } in
          if A.compare_and_set cell cur r then begin
            rdcss_complete r;
            d
          end
          else rdcss d cell leg
      | _ -> cur

    (* [casn_help d] drives the CASN descriptor [d] to its decision and
       write-back, and returns whether it succeeded. *)
    let rec casn_help d =
      match d with
      | C { status; ops } ->
          let outcome =
            if A.get status == Undecided then install d ops 0
            else A.get status
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
          (* Phase 2: write back, or restore what each leg expected (a
             location's in a fresh box). Failed helpers' CASes fail
             harmlessly. *)
          for i = 0 to Array.length ops - 1 do
            match ops.(i) with
            | Same_leg { cell; exp; n } ->
                ignore (A.compare_and_set cell d (if success then n else exp))
            | Payload_leg { cell; exp; n } ->
                ignore
                  (A.compare_and_set cell d (if success then n else V exp))
          done;
          success
      | _ -> assert false

    (* Phase 1: install [d] into [ops.(i)] and every later leg, helping any
       other CASN we trip over. Since all operations install in one global
       order, the one with the first conflicting cell wins and the system
       as a whole makes progress. *)
    and install d ops i =
      if i = Array.length ops then Succeeded
      else
        let leg = ops.(i) in
        match rdcss d (leg_cell leg) leg with
        | C _ as d' when d' == d -> install d ops (i + 1)
        | C _ as d' ->
            ignore (casn_help d');
            install d ops i
        | _ -> Failed

    let start ops = casn_help (C { status = A.make Undecided; ops })

    let make v = A.make v

    let rec get c =
      match A.get c with
      | R _ as r ->
          rdcss_complete r;
          get c
      | C _ as d ->
          ignore (casn_help d);
          get c
      | v -> v

    let set c v = A.set c v

    let rec cas_as : type a e. (a, e) expect -> a t -> e -> a state -> bool =
     fun expect c exp v ->
      let cur = A.get c in
      match cur with
      | R _ ->
          rdcss_complete cur;
          cas_as expect c exp v
      | C _ ->
          ignore (casn_help cur);
          cas_as expect c exp v
      | _ ->
          holds expect exp cur
          && (A.compare_and_set c cur v || cas_as expect c exp v)

    let cas c exp v = cas_as Same c exp v

    (* Takes ownership of [ops]. *)
    let casn_legs ops =
      match Array.length ops with
      | 0 -> true
      | 1 -> (
          match ops.(0) with
          | Same_leg { cell; exp; n } -> cas_as Same cell exp n
          | Payload_leg { cell; exp; n } -> cas_as Payload cell exp n)
      | k ->
          for i = 1 to k - 1 do
            for j = 0 to i - 1 do
              if leg_cell ops.(i) == leg_cell ops.(j) then
                invalid_arg "Mcas.casn: aliased locations"
            done
          done;
          start ops

    let casn ops =
      casn_legs
        (Array.map (fun (cell, exp, n) -> Same_leg { cell; exp; n }) ops)

    let dcas c1 e1 n1 c2 e2 n2 =
      if c1 == c2 then invalid_arg "Mcas.dcas: aliased locations"
      else
        start
          [|
            Same_leg { cell = c1; exp = e1; n = n1 };
            Same_leg { cell = c2; exp = e2; n = n2 };
          |]

    let dcss c1 e1 c2 e2 n2 = dcas c1 e1 e1 c2 e2 n2
  end

  type 'a loc = { cell : 'a Cell.t; id : int }

  (* Allocation order for descriptor installation. Uses the host atomic
     directly (not [A]): location creation is setup, not part of any
     simulated algorithm's hot path. *)
  let next_id = Stdlib.Atomic.make 0 (* lint: allow — setup-only id source *)

  let make v =
    (* lint: allow — id allocation is setup, outside the simulated heap *)
    { cell = Cell.make (V v); id = Stdlib.Atomic.fetch_and_add next_id 1 }

  let get loc = match Cell.get loc.cell with V v -> v | _ -> assert false

  (** Unconditional store. Only safe when no concurrent operation can hold
      a descriptor in [loc] (initialization, quiescent phases). *)
  let set loc v = Cell.set loc.cell (V v)

  let cas loc exp v = Cell.cas_as Payload loc.cell exp (V v)

  let leg l exp n = Payload_leg { cell = l.cell; exp; n = V n }

  (** [casn ops] atomically: checks that every [(loc, exp, _)] holds [exp]
      (physically) and, if all do, stores each new value. Locations must
      be distinct; they are installed in allocation order. *)
  let casn ops =
    let ops = Array.copy ops in
    Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a.id b.id) ops;
    Cell.casn_legs (Array.map (fun (l, exp, n) -> leg l exp n) ops)

  (** Double compare-and-swap over two distinct locations. The one id
      comparison that puts the legs in allocation order also rejects
      aliased legs. *)
  let dcas l1 e1 n1 l2 e2 n2 =
    if l1.id < l2.id then Cell.start [| leg l1 e1 n1; leg l2 e2 n2 |]
    else if l2.id < l1.id then Cell.start [| leg l2 e2 n2; leg l1 e1 n1 |]
    else invalid_arg "Mcas.dcas: aliased locations"

  (** Double-compare single-swap: writes [l2 <- n2] only if [l1] holds
      [e1] and [l2] holds [e2]. Implemented with a DCAS whose first leg
      rewrites [e1] to itself, exactly as the paper's implementation
      chooses to (§VI-A). *)
  let dcss l1 e1 l2 e2 n2 = dcas l1 e1 e1 l2 e2 n2
end
