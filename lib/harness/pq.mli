(** First-class priority-queue handles, so the experiment drivers can
    treat every structure uniformly. Keys are [int], as in the paper's
    microbenchmarks. *)

type t = {
  name : string;  (** display name, matching the paper's Fig. 2 legend *)
  insert : int -> unit;
  insert_many : int list -> unit;
      (** batched insert; the handle sorts the batch, structures without
          a native batched path degrade to element-wise [insert] *)
  extract_min : unit -> int option;
  extract_many : unit -> int list;
      (** structures without a native extract-many degrade to a singleton
          [extract_min] *)
  extract_approx : unit -> int option;
      (** probabilistic extract-min (mounds only); structures without a
          native variant degrade to the exact [extract_min] *)
  try_insert : int -> bool;
      (** one bounded insertion pass (mounds); structures without a
          native variant degrade to [insert] and always succeed *)
  insert_until : deadline:int -> int -> unit Mound.Intf.outcome;
      (** deadline-checking insert (mounds); others degrade to the
          unbounded [insert] and always report [Ok] *)
  extract_min_until : deadline:int -> int option Mound.Intf.outcome;
      (** deadline-checking extract (mounds); others degrade to
          [extract_min] *)
  size : unit -> int;  (** quiescent element count *)
  check : unit -> bool;  (** quiescent invariant check *)
  ops : unit -> Mound.Stats.Ops.t option;
      (** dynamic progress counters, for the structures that keep them *)
}

type maker = { make : capacity:int -> t }
(** Deferred constructor; [capacity] bounds the fixed-size array
    structures (Hunt heap, STM heap, coarse heap) and is ignored by the
    unbounded ones. *)

val degraded_until :
  insert:(int -> unit) ->
  extract_min:(unit -> int option) ->
  (int -> bool)
  * (deadline:int -> int -> unit Mound.Intf.outcome)
  * (deadline:int -> int option Mound.Intf.outcome)
(** [(try_insert, insert_until, extract_min_until)] for a structure
    without native deadline support: the unbounded operations under the
    new names, always succeeding. *)

(** Every structure instantiated over one runtime. *)
module Of_runtime (_ : Runtime.S) : sig
  val mound_lock : maker
  val mound_lf : maker

  val multiqueue :
    ?c:int -> ?stickiness:int -> ?queues:int -> domains:int -> unit -> maker
  (** Relaxed MultiQueue over [c·domains] (default [c = 2], or exactly
      [queues]) try-locked sequential mounds with two-choice delete-min
      and sticky queue selection. [domains] should be the peak thread
      count the handle will see — the queue count is fixed at creation.
      The handle name stays ["MultiQueue"] across configurations so
      bench baselines compare across sweeps. *)

  val hunt : maker
  val skiplist : maker
  val skiplist_lock : maker
  val stm_heap : maker
  val coarse : maker

  val paper_set : maker list
  (** The four structures of the paper's Fig. 2, in its legend order. *)

  val extended_set : maker list
  (** [paper_set] plus the coarse-lock, STM-heap and lock-based-skiplist
      ablations. *)
end

(** On real OCaml domains. *)
module On_real : module type of Of_runtime (Runtime.Real)

(** On the virtual-time simulator. *)
module On_sim : module type of Of_runtime (Sim.Runtime)
