(** xoshiro256** pseudo-random number generator (Blackman & Vigna 2018).

    The workhorse generator for the repository: every thread — real domain
    or simulated thread — owns one state and draws leaf indices, keys and
    operation choices from it. It is fast (a handful of shifts and adds per
    draw), has period 2^256 - 1, and passes BigCrush. Determinism matters
    here: the simulator replays identical schedules from identical seeds. *)

type t
(** Mutable generator state: four 64-bit words, never all zero, stored
    unboxed so that a draw allocates nothing. *)

val create : int64 -> t
(** [create seed] expands [seed] into a full 256-bit state via
    {!Splitmix64}, per the authors' recommendation. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] uses the given words directly.
    @raise Invalid_argument if all four words are zero. *)

val copy : t -> t
(** Independent generator with the same future stream. *)

val fingerprint : t -> int
(** Non-negative hash of the current 256-bit state. Two generators with
    the same fingerprint have (for all practical purposes) the same state;
    the liveness checker folds this into its state fingerprints so that a
    thread consuming randomness never looks like a repeated state. *)

val next : t -> int64
(** Next 64-bit output. *)

val next_int : t -> int -> int
(** [next_int t bound] is uniform in [\[0, bound)]: the top 61 bits of a
    draw, redrawn while they fall in the incomplete final bucket of the
    2^61 range (a threshold rejection), then reduced by [mod], so there
    is no modulo bias. [bound] must be positive. *)

val bits30 : t -> int
(** 30 uniform bits as a non-negative [int]; cheaper than {!next_int} when a
    raw bit source is enough. *)

val bool : t -> bool
(** The low bit of the next output. Like {!next_int} and {!bits30}, it
    allocates nothing; only {!next} boxes its result. *)

val jump : t -> unit
(** Advance [t] by 2^128 steps; used to derive widely separated streams
    from a common ancestor state. *)
