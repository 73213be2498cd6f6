(** Software multi-word compare-and-swap (Harris, Fraser & Pratt, DISC
    2002) — the DCAS/DCSS substrate the paper's lock-free mound needs on
    single-CAS hardware. Lock-free: any thread that encounters another
    operation's descriptor helps it complete.

    The protocol runs over {e cells} ({!Make.Cell}): a cell is the
    atomic word itself, holding a {!Make.state}, an open type whose
    constructors the client declares ([type _ M.state += Node of
    {...}]), so a read returns the client's record itself, with no box
    between the cell and it. A multi-cell operation installs its legs
    in the order the caller names them, so every caller must name the
    cells it combines in one global order (the lock-free mound names
    parents before children, the order its tree allocates them in).

    Equality is {e physical} ([==]) as in [Stdlib.Atomic], of the state
    itself. Store freshly allocated immutable states, which also rules
    out ABA.

    Cost structure (measured by `repro ablation costs`): an uncontended
    DCAS/DCSS issues ~7 hardware CASes — the "several CAS per software
    DCAS" that the paper's §IV cost comparison builds on.

    Allocation budget: an uncontended [dcas] or [dcss] allocates 27
    words — its two legs, its status cell and descriptors — and writes
    back the caller's states themselves; a single-cell [cas] allocates
    nothing. Every descriptor is an extension block, one word (its
    constructor's slot) wider than a variant's block. Each descriptor is
    the very block it installs into cells, so the CASes that later
    remove it compare against the physical block every helper read.

    The {e locations} ({!Make.loc}) are a thin client of [Cell] that
    holds any value in a box and compares payloads. They exist only for
    the benchmark's Mcas layer ([bench/perf/layers.ml]); ROADMAP item
    1(a) moves that layer to cells and deletes them. *)

(** Status of an in-flight CASN; immediate constructors, so physical
    equality on them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (_ : Runtime.ATOMIC) : sig
  type 'a state = ..
  (** What a cell holds. Clients add the constructors they store; the
      protocol's own (its RDCSS and CASN descriptors, and the box a
      location keeps its value in) are private, and a cell read never
      returns a descriptor. A match on a state therefore needs a raising
      arm ([| _ -> assert false]). ['a] is the type of a location's
      values; a client of cells may fix it to anything. *)

  (** Cells: one atomic word each. Multi-cell operations install their
      legs in argument order. *)
  module Cell : sig
    type 'a t
    (** A shared cell holding ['a state]s. *)

    val make : 'a state -> 'a t

    val get : 'a t -> 'a state
    (** Read the current state, helping any in-flight operation first. *)

    val cas : 'a t -> 'a state -> 'a state -> bool
    (** [cas c expected v] — single-cell CAS with helping. *)

    val casn : ('a t * 'a state * 'a state) array -> bool
    (** [casn ops] atomically checks every [(c, expected, _)] and, if all
        match, stores each new state. Legs are installed in array order,
        which must agree with the global order of every other operation
        on the same cells.
        @raise Invalid_argument if two operations name the same cell. *)

    val dcas :
      'a t -> 'a state -> 'a state -> 'a t -> 'a state -> 'a state -> bool
    (** [dcas c1 e1 n1 c2 e2 n2] — double compare-and-swap, installing
        [c1] first.
        @raise Invalid_argument if [c1] and [c2] are the same cell. *)

    val dcss : 'a t -> 'a state -> 'a t -> 'a state -> 'a state -> bool
    (** [dcss c1 e1 c2 e2 n2] — double-compare single-swap: writes
        [c2 <- n2] only if [c1 = e1] and [c2 = e2], installing [c1]
        first. A DCAS whose first leg rewrites [e1] to itself, as the
        paper does (§VI-A).
        @raise Invalid_argument if [c1] and [c2] are the same cell. *)
  end

  type 'a loc
  (** A cell holding a value of type ['a] in a box. Each operation reads
      the boxes, compares their payloads physically, and runs the
      {!Cell} operation on the boxes it read, retrying while that fails
      on payloads that still match. Legs install in argument order, so
      callers name locations in one global order, as on cells. Only
      [bench/perf/layers.ml] calls these. *)

  val make : 'a -> 'a loc

  val get : 'a loc -> 'a
  (** Read the current value, helping any in-flight operation first. *)

  val cas : 'a loc -> 'a -> 'a -> bool
  (** [cas loc expected v] — single-location CAS; boxes [v] (3 words). *)

  val dcas : 'a loc -> 'a -> 'a -> 'a loc -> 'a -> 'a -> bool
  (** [dcas l1 e1 n1 l2 e2 n2] — {!Cell.dcas} on the boxes [l1] and [l2]
      hold when their payloads are [e1] and [e2]; boxes [n1] and [n2]
      (33 words).
      @raise Invalid_argument if [l1] and [l2] are the same location and
      both payloads match. *)

  val dcss : 'a loc -> 'a -> 'a loc -> 'a -> 'a -> bool
  (** [dcss l1 e1 l2 e2 n2] — {!Cell.dcss} on the boxes [l1] and [l2]
      hold when their payloads are [e1] and [e2]: the identity leg
      re-installs [l1]'s box, and only [n2] is boxed (30 words).
      @raise Invalid_argument if [l1] and [l2] are the same location and
      both payloads match. *)
end
