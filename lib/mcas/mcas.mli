(** Software multi-word compare-and-swap (Harris, Fraser & Pratt, DISC
    2002) — the DCAS/DCSS substrate the paper's lock-free mound needs on
    single-CAS hardware. Lock-free: any thread that encounters another
    operation's descriptor helps it complete.

    Equality is {e physical} ([==]) as in [Stdlib.Atomic]; store freshly
    allocated immutable values, which also rules out ABA.

    Cost structure (measured by `repro ablation costs`): an uncontended
    DCAS/DCSS issues ~7 hardware CASes — the "several CAS per software
    DCAS" that the paper's §IV cost comparison builds on.

    Allocation budget: an uncontended [dcas] or [dcss] allocates 28 words
    — its two legs, its status cell and descriptors, and one fresh value
    block per written location. Each descriptor is the
    very block it installs into locations (an inline record of the
    location state), so the CASes that later remove it compare against
    the physical block every helper read. *)

(** Status of an in-flight CASN; immediate constructors, so physical
    equality on them is value equality. *)
type status = Undecided | Succeeded | Failed

module Make (_ : Runtime.ATOMIC) : sig
  type 'a loc
  (** A shared location holding values of type ['a]. *)

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
