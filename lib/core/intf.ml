(** Shared signatures and value-ordering helpers for the mound library.

    A mound node's logical value is the head of its sorted list, or +∞
    when the list is empty (the paper's ⊤). We represent that as
    ['elt option] with [None] meaning +∞, so no sentinel element is ever
    required of the user. *)

(** Totally ordered elements storable in a priority queue. *)
module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(** Result of a deadline- or admission-aware operation. [Timeout] means
    the operation observed its deadline expire before it could complete
    and gave up without taking effect; [Rejected] means an admission
    policy (the bounded front-end's capacity watermark) refused it
    outright. Either way the queue is unchanged as far as the caller's
    element is concerned. *)
type 'a outcome = Ok of 'a | Timeout | Rejected

(** Deadlines are absolute [Runtime.S.monotonic_ns] stamps; this sentinel
    means "no deadline", and retry loops short-circuit on it so the
    unbounded paths never read the clock. *)
let no_deadline = max_int

(** The full interface shared by the three mound variants (sequential,
    lock-free, locking). [Mound.Seq], [Mound.Lf] and [Mound.Lock] are
    checked against it in [mound.ml], so the variants cannot drift
    apart. Creation is variant-specific (seeds, thresholds) and therefore
    not part of this signature. *)
module type MOUND = sig
  type elt
  type t

  val insert : t -> elt -> unit
  (** [insert t v] adds [v]. O(log log N) expected: probe random leaves,
      binary-search one ancestor chain, one atomic write. *)

  val extract_min : t -> elt option
  (** [extract_min t] removes and returns a minimum element, or [None] on
      an empty mound. O(log N): behead the root list, then restore the
      mound property downward. *)

  val peek_min : t -> elt option
  (** [peek_min t] reads the minimum without removing it. *)

  val extract_many : t -> elt list
  (** [extract_many t] atomically takes the root's whole sorted list
      (paper §V). Its head is the global minimum; later elements are small
      but not necessarily the next minima. Empty list on an empty mound. *)

  val insert_many : t -> elt list -> unit
  (** [insert_many t batch] inserts a {e sorted} batch front to back:
      each step publishes the current head spliced with the longest
      prefix of the batch that fits the same node, in one atomic step,
      and a head that keeps losing races falls back to {!insert}. The
      dual of {!extract_many}; behaviour is unspecified if [batch] is not
      sorted. *)

  val insert_until : t -> deadline:int -> elt -> unit outcome
  (** [insert_until t ~deadline v] inserts [v], giving up with [Timeout]
      once [Runtime.S.monotonic_ns] passes the absolute [deadline].
      [deadline = no_deadline] never times out. A [Timeout] guarantees [v]
      was not published. The first attempt always runs, so a deadline
      that has already passed gives a one-pass insert that never waits
      out a contended lock or retries a lost race. *)

  val extract_min_until : t -> deadline:int -> (elt option) outcome
  (** Deadline-checking {!extract_min}: [Ok None] is an observed empty
      mound, [Timeout] means the retry/lock loop outlived [deadline]
      without extracting (nothing was removed). *)

  val extract_approx : ?max_level:int -> t -> elt option
  (** [extract_approx t] extracts the minimum of a {e random sub-mound}
      rooted within the first [max_level+1] levels (default 2) — probably
      close to the global minimum, at much lower contention (paper §V).
      Falls back to [extract_min] when the probed node is empty. *)

  val is_empty : t -> bool

  val depth : t -> int
  (** Number of tree levels currently in use. *)

  val size : t -> int
  (** Total stored elements. O(N); meant for quiescent points. *)

  val fold_nodes : t -> ('acc -> int -> elt list -> 'acc) -> 'acc -> 'acc
  (** Quiescent fold over (node index, node list) in index order; feeds
      {!Stats.compute}. *)

  val check : t -> bool
  (** Quiescent invariant check: sorted per-node lists plus the mound
      property (and, for the locking variant, that no node is locked). *)
end

(** Comparison of node values, where [None] is +∞. *)
module Value = struct
  let compare cmp a b =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> 1
    | Some _, None -> -1
    | Some x, Some y -> cmp x y
end

(** Sorted node lists, ordered like {!Value}: an empty list is ⊤. *)
module Sorted = struct
  (** [value l]: the node value [val(l)], the head of [l] or [None] (⊤). *)
  let value = function [] -> None | x :: _ -> Some x

  (** [head_ge cmp l v]: [val(l) >= v], so [v] may be pushed onto [l]. *)
  let head_ge cmp l v = match l with [] -> true | x :: _ -> cmp x v >= 0

  (** [splice cmp batch l]: the longest prefix of the sorted [batch]
      whose elements fit onto [l] (each [<= val(l)]), followed by [l]. *)
  let rec splice cmp batch l =
    match batch with
    | x :: rest when head_ge cmp l x -> x :: splice cmp rest l
    | _ -> l

  (** [remainder cmp batch l]: what [splice cmp batch l] leaves out. *)
  let rec remainder cmp batch l =
    match batch with
    | x :: rest when head_ge cmp l x -> remainder cmp rest l
    | rest -> rest

  let rec sorted cmp = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted cmp rest

  (** The quiescent mound invariant over a [fold_nodes]-style [fold]:
      every node's list is sorted and, below the root, dominated by its
      parent's list. [parent p] is the list of node [p], or [None] when
      the variant excuses [p]'s children (a dirty lock-free node). *)
  let well_formed cmp ~fold ~parent =
    fold
      (fun ok i l ->
        ok && sorted cmp l
        && (i = 1
           ||
           match (parent (i / 2), l) with
           | None, _ | Some _, [] -> true
           | Some [], _ :: _ -> false
           | Some (x :: _), y :: _ -> cmp x y <= 0))
      true
end

(** Default number of random leaves probed before the tree grows a level;
    the paper's THRESHOLD, set to its value of 8 (§VI-A). *)
let default_threshold = 8
