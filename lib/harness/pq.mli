(** First-class priority-queue handles, so the experiment drivers can
    treat every structure uniformly. Keys are [int], as in the paper's
    microbenchmarks.

    Every handle comes from one of two constructors: {!of_mound} for a
    structure with the whole {!Mound.Intf.MOUND} surface, {!of_basic} for
    one with only the core operations, where the mound extensions
    degrade as documented there. A {!maker} states its structure's
    display name and linearizability once, so drivers and checkers read
    them without building a queue. *)

type t = {
  insert : int -> unit;
  insert_many : int list -> unit;  (** batched insert of any batch *)
  extract_min : unit -> int option;
  extract_many : unit -> int list;
  extract_approx : ?max_level:int -> unit -> int option;
      (** probabilistic extract-min from a random node within the first
          [max_level+1] levels (default 2) *)
  peek_min : unit -> int option;
  insert_until : deadline:int -> int -> unit Mound.Intf.outcome;
  extract_min_until : deadline:int -> int option Mound.Intf.outcome;
  size : unit -> int;  (** quiescent element count *)
  check : unit -> bool;  (** quiescent invariant check *)
  ops : unit -> Mound.Stats.Ops.t option;
      (** dynamic progress counters, for the structures that keep them *)
}

val of_mound :
  (module Mound.Intf.MOUND with type elt = int and type t = 'q) -> 'q -> t
(** The handle over a mound-interface structure: every operation is the
    structure's own, and [insert_many] sorts the batch the interface
    requires sorted. [ops] is [None]; a structure that keeps counters
    attaches them, [{ (of_mound (module M) q) with ops = ... }]. *)

val of_basic :
  insert:(int -> unit) ->
  extract_min:(unit -> int option) ->
  peek_min:(unit -> int option) ->
  size:(unit -> int) ->
  check:(unit -> bool) ->
  t
(** The handle over a structure with only the core operations. The
    mound extensions degrade: [insert_many] inserts element-wise,
    [extract_many] is a singleton [extract_min], [extract_approx] is the
    exact [extract_min], the [_until] pair run the unbounded operation
    and always succeed, and [ops] is [None]. *)

type maker = {
  name : string;  (** display name, matching the paper's Fig. 2 legend *)
  linearizable : bool;
      (** extraction meets the exact linearizable priority-queue spec *)
  make : capacity:int -> t;
      (** [capacity] bounds the fixed-size array structures (Hunt heap,
          STM heap, coarse heap) and is ignored by the unbounded ones *)
}

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
      The name stays ["MultiQueue"] across configurations so bench
      baselines compare across sweeps. *)

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
