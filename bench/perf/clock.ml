(* Monotonic nanosecond clock read without allocating: the C stub that
   bechamel's own monotonic_clock library links ([clock_gettime] on
   CLOCK_MONOTONIC), declared here with an unboxed result so a timed call
   costs one vDSO read and no minor words. [Unix.gettimeofday] has 1 µs
   resolution, which put whole latency distributions in one bucket. *)

external raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (raw ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9
