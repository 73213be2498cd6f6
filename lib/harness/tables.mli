(** Drivers for the paper's sequential structure experiments
    (Tables I–IV, §VI-B and §VI-F), run on the sequential mound at full
    paper scale. The tables measure the shape the randomized insertion
    policy produces, which the sequential and concurrent variants share. *)

type row = { label : string; stats : Mound.Stats.t }

val mound_stats : Mound.Seq_int.t -> Mound.Stats.t
(** Snapshot a mound's per-level statistics. *)

val table1 : ?n:int -> ?seed:int64 -> unit -> row list
(** Table I: incomplete levels after [n] (default 2^20) insertions, for
    increasing and random key orders. *)

val table2 : ?n:int -> ?seed:int64 -> unit -> row list
(** Table II: incomplete levels after n/4 and 3n/4 extract-mins from a
    mound initialized with [n] elements, per insertion order. *)

val table3 : ?ops:int -> ?seed:int64 -> unit -> row list
(** Table III: incomplete levels after [ops] mixed random operations on
    mounds initialized with 2^b random elements for each [b] in
    [[8; 16; 20]]. *)

val table4 : ?n:int -> ?seed:int64 -> unit -> Mound.Stats.t
(** Table IV: per-level average list size and average value after [n]
    random insertions. *)

val print_table1 : Format.formatter -> row list -> unit
val print_table2 : Format.formatter -> row list -> unit
val print_table3 : Format.formatter -> row list -> unit
val print_table4 : Format.formatter -> Mound.Stats.t -> unit
