(** Workload definitions shared by the simulator and real-domain drivers:
    the four panels of the paper's Fig. 2 (§VI-C..F) and the key-order
    generators of its sequential structure experiments (Tables I–III). *)

(** The four Fig. 2 workloads. *)
type panel =
  | Insert  (** each thread inserts random keys (Fig. 2 a/e) *)
  | Extract  (** drain a pre-populated queue (Fig. 2 b/f) *)
  | Mixed  (** 50/50 insert / extract-min (Fig. 2 c/g) *)
  | Extract_many  (** drain by whole batches (Fig. 2 d/h) *)

val panel_name : panel -> string

val panel_of_string : string -> panel option

val key_range : int
(** Random keys are drawn uniformly from [\[0, key_range)]; a wide range
    keeps accidental duplicates rare. *)

(** Insertion orders for the randomization experiments: [Random_order] is
    the average case, [Increasing] the worst (every mound list a
    singleton), [Decreasing] the best (one sorted list at the root). *)
type order = Random_order | Increasing | Decreasing

val order_name : order -> string

val keys : order:order -> n:int -> seed:int64 -> int array
(** Materialize a deterministic insertion sequence. *)

type zipf
(** Precomputed Zipfian inverse-CDF table for the overload scenarios. *)

val zipf : ?ranks:int -> ?skew:float -> unit -> zipf
(** [zipf ()] builds a table of [ranks] ranks (default 1024) with
    exponent [skew] (default 0.99, the classic web-trace value). *)

val zipf_key : zipf -> rand:(int -> int) -> int
(** Draw a key: rank 0 (the hottest) maps to the smallest keys, so skew
    pressure lands near the mound's root. [rand] is the caller's
    thread-local generator. *)

val run_thread :
  panel:panel -> q:Pq.t -> rand:(int -> int) -> ops:int -> int
(** One thread's share of a panel against queue [q]. [rand] must be the
    executing thread's own generator; insert keys are uniform in
    [\[0, key_range)]. Returns the number of {e elements} processed
    (equal to completed operations except for [Extract_many], whose
    calls cover many elements, and where [ops] is ignored — the thread
    drains until empty). *)
