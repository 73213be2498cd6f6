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
    descriptors; a client declares constructors of its own and stores
    them unboxed, so a read returns the client's record itself (the
    lock-free mound's [Empty]/[Node], one dependent load after the
    cell). Every match on a state names the descriptors inline and
    takes anything else as a value.

    The protocol is written once, over cells. A leg is one record
    [{cell; exp; n}], compared with [==], and legs install in the order
    the caller names them, so every client names the cells it combines
    in one global order of its own (the lock-free mound: parent before
    child, the order its tree allocates them in).

    Cost structure matters for the evaluation: a DCAS here issues roughly
    five CASes on the uncontended path (two RDCSS installs at two CASes
    each, one status decision) plus two write-back CASes — the "5 CAS per
    DCAS" the paper's §IV compares against fine-grained locking.

    Allocation budget: an uncontended [dcas] or [dcss] allocates 27
    words — the two-leg array (11), the status cell (2), the CASN
    descriptor (4) and one RDCSS descriptor per leg (2 × 5) — and a
    single-cell [cas] allocates nothing. Every descriptor is an extension
    block, one word more than a variant's block: the constructor's slot.
    The descriptors {e are} the installed cell states, the legs are
    checked with one comparison, and the phase loops are top-level
    functions, so nothing else is allocated per call.

    Equality is {e physical} ([==]), as in [Stdlib.Atomic]: users are
    expected to store freshly allocated immutable records, which is also
    what rules out ABA without the paper's version counters.

    The locations at the end ({!Make.loc}) are a client of [Cell] that
    boxes any value and compares payloads; only the benchmark's Mcas
    layer ([bench/perf/layers.ml]) calls them. *)

(** Operation statuses are immediate constructors, so physical equality on
    them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (A : Runtime.ATOMIC) = struct
  type 'a state = ..

  (* A CASN leg: the cell, the state it must hold and the state to
     write. *)
  type 'a leg = { cell : 'a state A.t; exp : 'a state; n : 'a state }

  (* The [R] and [C] blocks are the descriptors themselves: each is
     allocated once, by the thread that starts the RDCSS or CASN, and
     that same block is what gets installed into cells. Every helper
     reads it from a cell, so the CASes that remove a descriptor compare
     against exactly the block they found. *)
  type 'a state +=
    | R of { casn : 'a state; cell : 'a state A.t; old : 'a state }
        (** RDCSS descriptor: install [casn] (a [C]) over [old], the state
            it replaced. *)
    | C of { status : status A.t; ops : 'a leg array }
        (** CASN descriptor; [ops] in install order. *)

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

    (* Attempt to replace [exp] in [cell] by the CASN descriptor [d],
       provided its status is still undecided. Returns [d] once the
       descriptor is (or no longer needs to be) installed; anything else
       is what the caller must deal with: another CASN's descriptor, or
       a state other than [exp]. Each install CAS gets a freshly built
       RDCSS descriptor, so no block is ever installed twice. *)
    let rec rdcss d cell exp =
      let cur = A.get cell in
      match cur with
      | R _ ->
          rdcss_complete cur;
          rdcss d cell exp
      | C _ -> cur
      | _ when cur == exp ->
          let r = R { casn = d; cell; old = cur } in
          if A.compare_and_set cell cur r then begin
            rdcss_complete r;
            d
          end
          else rdcss d cell exp
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
          (* Phase 2: write back, or restore what each leg expected.
             Failed helpers' CASes fail harmlessly. *)
          for i = 0 to Array.length ops - 1 do
            let { cell; exp; n } = ops.(i) in
            ignore (A.compare_and_set cell d (if success then n else exp))
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
        let { cell; exp; _ } = ops.(i) in
        match rdcss d cell exp with
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

    let rec cas c exp v =
      let cur = A.get c in
      match cur with
      | R _ ->
          rdcss_complete cur;
          cas c exp v
      | C _ ->
          ignore (casn_help cur);
          cas c exp v
      | _ -> cur == exp && (A.compare_and_set c cur v || cas c exp v)

    let casn ops =
      match ops with
      | [||] -> true
      | [| (c, exp, n) |] -> cas c exp n
      | _ ->
          let ops = Array.map (fun (cell, exp, n) -> { cell; exp; n }) ops in
          for i = 1 to Array.length ops - 1 do
            for j = 0 to i - 1 do
              if ops.(i).cell == ops.(j).cell then
                invalid_arg "Mcas.casn: aliased locations"
            done
          done;
          start ops

    let dcas c1 e1 n1 c2 e2 n2 =
      if c1 == c2 then invalid_arg "Mcas.dcas: aliased locations"
      else
        start
          [| { cell = c1; exp = e1; n = n1 }; { cell = c2; exp = e2; n = n2 } |]

    let dcss c1 e1 c2 e2 n2 = dcas c1 e1 e1 c2 e2 n2
  end

  (* Locations: a cell holding a [V] box around any value. Each call
     reads the boxes, compares their payloads with [==] and runs the
     cell operation on the boxes it read; it retries when that fails
     although every payload still matches (a box was replaced by one
     with the same payload). Legs install in argument order. *)
  type 'a state += V of 'a

  type 'a loc = 'a Cell.t

  let make v = Cell.make (V v)
  let get l = match Cell.get l with V v -> v | _ -> assert false

  let rec cas l exp v =
    match Cell.get l with
    | V cur as b -> cur == exp && (Cell.cas l b (V v) || cas l exp v)
    | _ -> assert false

  let rec dcas l1 e1 n1 l2 e2 n2 =
    let b1 = Cell.get l1 in
    let b2 = Cell.get l2 in
    match (b1, b2) with
    | V v1, V v2 ->
        v1 == e1 && v2 == e2
        && (Cell.dcas l1 b1 (V n1) l2 b2 (V n2) || dcas l1 e1 n1 l2 e2 n2)
    | _ -> assert false

  (* The identity leg re-installs the box it read, as [Cell.dcss] does
     with a state. *)
  let rec dcss l1 e1 l2 e2 n2 =
    let b1 = Cell.get l1 in
    let b2 = Cell.get l2 in
    match (b1, b2) with
    | V v1, V v2 ->
        v1 == e1 && v2 == e2
        && (Cell.dcss l1 b1 l2 b2 (V n2) || dcss l1 e1 l2 e2 n2)
    | _ -> assert false
end
