(* lint: allow-file — the watchdog is wall-clock infrastructure by
   definition: it spawns a monitor domain and reads real (monotonic)
   time to convert a wedged Domain.join into a fast failure. Nothing
   here touches the simulated heap. *)

(** Wall-clock watchdog for real-domain tests.

    A wedged domain (a genuinely lost lock, a livelock the chaos tier
    failed to provoke deterministically) turns [Domain.join] into a
    silent CI hang. OCaml gives no way to unwind a running domain from
    outside, so the honest fallback is a monitor that converts the hang
    into a loud, fast failure: print which join timed out and exit the
    process nonzero. The simulator's virtual-time watchdog
    ([Sim.Sched.run ~watchdog]) plays the same role deterministically;
    this is its blunt wall-clock cousin for tests that must run on real
    domains. *)

let default_timeout_s = 60.

(** [join_all ?timeout_s ?label doms] joins every domain in [doms],
    aborting the whole process (exit 124, like timeout(1)) with a
    diagnostic on stderr if they have not all returned within
    [timeout_s] (default {!default_timeout_s}) of the call. *)
let join_all ?(timeout_s = default_timeout_s) ?(label = "join_all") doms =
  let joined = Atomic.make false in
  let monitor =
    Domain.spawn (fun () ->
        let t0 = Runtime.Real.monotonic_ns () in
        let rec watch () =
          if Atomic.get joined then ()
          else if
            float_of_int (Runtime.Real.monotonic_ns () - t0) *. 1e-9
            > timeout_s
          then begin
            Printf.eprintf
              "[watchdog] %s: %d domain(s) still running after %.0fs — \
               wedged; aborting\n\
               %!"
              label (Array.length doms) timeout_s;
            exit 124
          end
          else begin
            Unix.sleepf 0.05;
            watch ()
          end
        in
        watch ())
  in
  Array.iter Domain.join doms;
  Atomic.set joined true;
  Domain.join monitor
