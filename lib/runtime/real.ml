(** The real execution environment: OCaml 5 domains and [Stdlib.Atomic].

    [rand_int] uses a domain-local xoshiro256** state derived from a global
    seed and the domain id, so runs are reproducible when domains are
    spawned deterministically. *)

module Atomic = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make = Stdlib.Atomic.make
  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set
  let compare_and_set = Stdlib.Atomic.compare_and_set
  let exchange = Stdlib.Atomic.exchange
  let fetch_and_add = Stdlib.Atomic.fetch_and_add
end

let cpu_relax = Domain.cpu_relax

let self () = (Domain.self () :> int)

let seed = Stdlib.Atomic.make 0x5EED_0F_ACEDL

let set_seed s = Stdlib.Atomic.set seed s

let rng_key =
  Domain.DLS.new_key (fun () ->
      Prng.for_thread ~seed:(Stdlib.Atomic.get seed) ~id:(self ()))

let rand_int bound = Prng.int (Domain.DLS.get rng_key) bound

(* CLOCK_MONOTONIC through the C stub that bechamel's monotonic_clock
   library links ([clock_gettime], a vDSO read on Linux), declared with
   an unboxed result and [noalloc] so a read allocates nothing. A clock
   step (NTP, a manual date change) cannot move lease or deadline
   arithmetic, and stamps resolve nanoseconds, not the microseconds of
   [Unix.gettimeofday]. *)
external clock_monotonic : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let monotonic_ns () = Int64.to_int (clock_monotonic ())
