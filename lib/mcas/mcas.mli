(** Software multi-word compare-and-swap (Harris, Fraser & Pratt, DISC
    2002) — the DCAS/DCSS substrate the paper's lock-free mound needs on
    single-CAS hardware. Lock-free: any thread that encounters another
    operation's descriptor helps it complete.

    Two handles share one protocol. A {e cell} ({!Make.Cell}) is the
    atomic word itself, holding a {!Make.state}: an open type whose
    constructors the client declares ([type _ M.state += Node of
    {...}]), so a read returns the client's record itself, with no box
    between the cell and it. A multi-cell operation installs its legs
    in the order the caller names them, so every caller must name the
    cells it combines in one global order (the lock-free mound names
    parents before children, the order its tree allocates them in). A
    {e location} ({!Make.loc}) is a cell plus its allocation id, holding
    any value in a box of the protocol's own; its operations sort their
    legs by id before running the cell protocol, so callers need not
    order them.

    Equality is {e physical} ([==]) as in [Stdlib.Atomic]: on a cell, of
    the state itself; on a location, of the value in its box. Store
    freshly allocated immutable values, which also rules out ABA.

    Cost structure (measured by `repro ablation costs`): an uncontended
    DCAS/DCSS issues ~7 hardware CASes — the "several CAS per software
    DCAS" that the paper's §IV cost comparison builds on.

    Allocation budget: an uncontended [dcas] or [dcss] on cells
    allocates 27 words — its two legs, its status cell and descriptors —
    and writes back the caller's states themselves; a single-cell [cas]
    allocates nothing. On locations the same DCAS allocates 33 words,
    one box per written value on top. Every descriptor and box is an extension block, one word
    (its constructor's slot) wider than a variant's block. Each
    descriptor is the very block it installs into cells, so the CASes
    that later remove it compare against the physical block every
    helper read. *)

(** Status of an in-flight CASN; immediate constructors, so physical
    equality on them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (_ : Runtime.ATOMIC) : sig
  type 'a state = ..
  (** What a cell holds. Clients add the constructors they store; the
      protocol's own (its RDCSS and CASN descriptors, and the box a
      location keeps its value in) are private, and a cell read never
      returns one. A match on a state therefore needs a raising arm
      ([| _ -> assert false]). ['a] is the type of a location's values;
      a client of bare cells may fix it to anything. *)

  (** Id-less cells: one atomic word each. Multi-cell operations install
      their legs in argument order. *)
  module Cell : sig
    type 'a t
    (** A shared cell holding ['a state]s. *)

    val make : 'a state -> 'a t

    val get : 'a t -> 'a state
    (** Read the current state, helping any in-flight operation first. *)

    val set : 'a t -> 'a state -> unit
    (** Unconditional store. Only safe when no concurrent operation can
        hold a descriptor in the cell (initialization, quiescence). *)

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
  (** A shared location holding values of type ['a]: a cell plus its
      allocation id. *)

  val make : 'a -> 'a loc

  val get : 'a loc -> 'a
  (** Read the current value, helping any in-flight operation first. *)

  val set : 'a loc -> 'a -> unit
  (** Unconditional store. Only safe when no concurrent operation can
      hold a descriptor in the location (initialization, quiescence). *)

  val cas : 'a loc -> 'a -> 'a -> bool
  (** [cas loc expected v] — single-location CAS with helping. *)

  val casn : ('a loc * 'a * 'a) array -> bool
  (** [casn ops] atomically checks every [(loc, expected, _)] and, if all
      match, stores each new value. Locations must be distinct; they are
      locked in allocation order internally, so callers need not sort.
      @raise Invalid_argument if two operations name the same location. *)

  val dcas : 'a loc -> 'a -> 'a -> 'a loc -> 'a -> 'a -> bool
  (** [dcas l1 e1 n1 l2 e2 n2] — double compare-and-swap over two
      distinct locations.
      @raise Invalid_argument if [l1] and [l2] are the same location. *)

  val dcss : 'a loc -> 'a -> 'a loc -> 'a -> 'a -> bool
  (** [dcss l1 e1 l2 e2 n2] — double-compare single-swap: writes
      [l2 <- n2] only if [l1 = e1] and [l2 = e2]. Implemented with a DCAS
      whose first leg rewrites [e1] to itself, as the paper does
      (§VI-A).
      @raise Invalid_argument if [l1] and [l2] are the same location. *)
end
