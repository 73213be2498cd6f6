(* Tests for the real runtime: atomic passthrough semantics and the
   domain-local PRNG. *)

module R = Runtime.Real

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let atomic_passthrough () =
  let a = R.Atomic.make 1 in
  check_int "get" 1 (R.Atomic.get a);
  R.Atomic.set a 2;
  check_int "set" 2 (R.Atomic.get a);
  check "cas ok" true (R.Atomic.compare_and_set a 2 3);
  check "cas stale" false (R.Atomic.compare_and_set a 2 4);
  check_int "exchange returns old" 3 (R.Atomic.exchange a 5);
  check_int "faa returns old" 5 (R.Atomic.fetch_and_add a 7);
  check_int "faa applied" 12 (R.Atomic.get a)

let cas_is_physical () =
  let x = ref 1 in
  let a = R.Atomic.make x in
  (* a structurally equal but distinct ref must not match *)
  check "phys-distinct fails" false
    (R.Atomic.compare_and_set a (Sys.opaque_identity (ref 1)) (ref 2));
  check "exact ref succeeds" true (R.Atomic.compare_and_set a x (ref 2))

let rand_bounds () =
  for _ = 1 to 5_000 do
    let v = R.rand_int 13 in
    check "bounded" true (v >= 0 && v < 13)
  done

let rand_distinct_across_domains () =
  (* each domain draws from its own stream; concurrent draws must not
     crash and the streams should differ *)
  let draws =
    List.init 3 (fun _ ->
        Domain.spawn (fun () -> List.init 32 (fun _ -> R.rand_int 1_000_000)))
    |> List.map Domain.join
  in
  match draws with
  | [ a; b; c ] ->
      check "streams differ" true (a <> b && b <> c && a <> c)
  | _ -> assert false

let self_stable_and_distinct () =
  let here = R.self () in
  check_int "stable" here (R.self ());
  let there = Domain.spawn (fun () -> R.self ()) |> Domain.join in
  check "distinct per domain" true (here <> there)

let cpu_relax_returns () =
  (* smoke: callable in a loop without blocking *)
  for _ = 1 to 1_000 do
    R.cpu_relax ()
  done;
  check "returns" true true

(* [monotonic_ns] is a monotonic clock with sub-microsecond steps: over
   10^5 back-to-back reads it never goes backwards, and the median of the
   nonzero steps between consecutive reads is under 1 µs. A wall clock
   read through [Unix.gettimeofday] fails the second check, since its
   smallest step is a whole microsecond. *)
let monotonic_clock () =
  let n = 100_000 in
  let stamps = Array.make n 0 in
  for i = 0 to n - 1 do
    stamps.(i) <- R.monotonic_ns ()
  done;
  let steps = ref [] in
  for i = 1 to n - 1 do
    let gap = stamps.(i) - stamps.(i - 1) in
    if gap < 0 then
      Alcotest.failf "read %d went back %d ns" i (-gap);
    if gap > 0 then steps := gap :: !steps
  done;
  let steps = Array.of_list !steps in
  Array.sort compare steps;
  check "the clock advanced" true (Array.length steps > 0);
  let median = steps.(Array.length steps / 2) in
  if median >= 1_000 then
    Alcotest.failf "median step %d ns, not under 1 us" median

let () =
  Alcotest.run "runtime"
    [
      ( "real",
        [
          Alcotest.test_case "atomic passthrough" `Quick atomic_passthrough;
          Alcotest.test_case "cas physical equality" `Quick cas_is_physical;
          Alcotest.test_case "rand bounds" `Quick rand_bounds;
          Alcotest.test_case "rand per-domain streams" `Quick
            rand_distinct_across_domains;
          Alcotest.test_case "self ids" `Quick self_stable_and_distinct;
          Alcotest.test_case "cpu_relax" `Quick cpu_relax_returns;
          Alcotest.test_case "monotonic clock" `Quick monotonic_clock;
        ] );
    ]
