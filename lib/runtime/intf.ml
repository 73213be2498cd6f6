(** Signatures describing the execution environment a concurrent algorithm
    runs in.

    Every concurrent structure in this repository is a functor over
    {!module-type-S}, so a single algorithm text can be instantiated
    against real shared memory ({!Runtime.Real}: [Stdlib.Atomic] +
    [Domain]) or against the deterministic virtual-time simulator
    ([Sim.Runtime]). The signature is intentionally the smallest set of
    primitives the algorithms use — anything outside it would silently
    bypass the simulator's cost accounting. *)

(** Shared atomic cells, mirroring the part of [Stdlib.Atomic] we rely
    on. *)
module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t

  val get : 'a t -> 'a

  val set : 'a t -> 'a -> unit

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set r expected v] — physical equality on [expected], as
      in [Stdlib.Atomic]. Concurrent code in this repository therefore
      publishes freshly allocated immutable records, which doubles as ABA
      protection. *)

  val exchange : 'a t -> 'a -> 'a

  val fetch_and_add : int t -> int -> int
end

module type S = sig
  module Atomic : ATOMIC

  val cpu_relax : unit -> unit
  (** Polite spin-wait hint. In the simulator this advances virtual time,
      which is what lets spinning coexist with virtual-time scheduling. *)

  val self : unit -> int
  (** Identifier of the calling thread (domain id, or simulated thread
      id). Stable for the thread's lifetime; not necessarily dense. *)

  val rand_int : int -> int
  (** [rand_int bound] draws uniformly from [\[0, bound)] using a
      thread-local generator, so concurrent callers never contend on RNG
      state. *)

  val monotonic_ns : unit -> int
  (** Monotonic timestamp for deadlines and lease expiry. On real domains
      this is [CLOCK_MONOTONIC] in nanoseconds: it never goes backwards,
      a wall-clock step does not move it, and back-to-back reads differ
      by well under a microsecond. Under the simulator it is the calling
      thread's virtual time, so deadline behaviour is deterministic and
      replayable. Only differences are meaningful; the origin is
      unspecified. *)
end
