(* Unit and property tests for the PRNG substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* SplitMix64 reference vector for seed 0 (Vigna's reference
   implementation; also used by Java's SplittableRandom tests). *)
let splitmix_vector () =
  let t = Prng.Splitmix64.create 0L in
  Alcotest.(check int64) "out0" 0xE220A8397B1DCDAFL (Prng.Splitmix64.next t);
  Alcotest.(check int64) "out1" 0x6E789E6AA1B965F4L (Prng.Splitmix64.next t);
  Alcotest.(check int64) "out2" 0x06C45D188009454FL (Prng.Splitmix64.next t)

let splitmix_copy () =
  let a = Prng.Splitmix64.create 42L in
  ignore (Prng.Splitmix64.next a);
  let b = Prng.Splitmix64.copy a in
  Alcotest.(check int64) "same stream" (Prng.Splitmix64.next a)
    (Prng.Splitmix64.next b)

(* xoshiro256** first output for the documented state {1,2,3,4}:
   rotl(s1 * 5, 7) * 9 = rotl(10, 7) * 9 = 1280 * 9 = 11520; the second
   follows from one state update by hand. *)
let xoshiro_first_outputs () =
  let t = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  Alcotest.(check int64) "out0" 11520L (Prng.Xoshiro256.next t);
  Alcotest.(check int64) "out1" 0L (Prng.Xoshiro256.next t)

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state 0L 0L 0L 0L))

let xoshiro_deterministic () =
  let a = Prng.create 12345L and b = Prng.create 12345L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let xoshiro_copy_independent () =
  let a = Prng.create 7L in
  ignore (Prng.int64 a);
  let b = Prng.Xoshiro256.copy a in
  Alcotest.(check int64) "copies agree" (Prng.int64 a) (Prng.int64 b);
  ignore (Prng.int64 a);
  (* advancing one does not advance the other *)
  let va = Prng.int64 a and vb = Prng.int64 b in
  check "diverged after unequal draws" true (va <> vb)

let bounds_respected () =
  let t = Prng.create 5L in
  for _ = 1 to 10_000 do
    let v = Prng.int t 7 in
    check "0 <= v" true (v >= 0);
    check "v < 7" true (v < 7)
  done;
  (* bound 1 is always 0 — this once looped forever (int overflow bug) *)
  check_int "bound 1" 0 (Prng.int t 1)

let int_in_range () =
  let t = Prng.create 6L in
  for _ = 1 to 1_000 do
    let v = Prng.int_in t ~lo:(-5) ~hi:5 in
    check "in range" true (v >= -5 && v <= 5)
  done;
  check_int "singleton range" 3 (Prng.int_in t ~lo:3 ~hi:3)

let rough_uniformity () =
  let t = Prng.create 99L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int t 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      check
        (Printf.sprintf "bucket %d within 5%% of mean" i)
        true
        (abs (c - (n / 10)) < n / 20))
    buckets

let thread_streams_differ () =
  let a = Prng.for_thread ~seed:1L ~id:0 in
  let b = Prng.for_thread ~seed:1L ~id:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 a = Prng.int64 b then incr same
  done;
  check "streams differ" true (!same < 2)

let jump_disjoint () =
  let a = Prng.create 3L in
  let b = Prng.Xoshiro256.copy a in
  Prng.Xoshiro256.jump b;
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 a = Prng.int64 b then incr overlap
  done;
  check "jumped stream is disjoint" true (!overlap < 2)

let shuffle_is_permutation () =
  let t = Prng.create 8L in
  let a = Array.init 100 Fun.id in
  let orig = Array.copy a in
  Prng.shuffle t a;
  check "same multiset" true
    (List.sort compare (Array.to_list a) = Array.to_list orig);
  check "actually shuffled" true (a <> orig)

let invalid_bounds () =
  let t = Prng.create 1L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Xoshiro256.next_int: bound must be positive") (fun () ->
      ignore (Prng.int t 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Prng.int_in: empty range") (fun () ->
      ignore (Prng.int_in t ~lo:2 ~hi:1))

(* property: next_int over large bounds stays within bounds and hits both
   halves of the range *)
let prop_next_int_bound =
  QCheck.Test.make ~name:"next_int within arbitrary bounds" ~count:500
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, b) ->
      let bound = b + 1 in
      let t = Prng.create (Int64.of_int seed) in
      let v = Prng.int t bound in
      v >= 0 && v < bound)

let bits30_range () =
  let t = Prng.create 4L in
  for _ = 1 to 10_000 do
    let v = Prng.Xoshiro256.bits30 t in
    check "bits30 range" true (v >= 0 && v < 1 lsl 30)
  done

(* The stream pinned bit for bit: polynomial folds of the first 10^4
   draws per bound (bound 1 still advances the state), of [bits30] and
   of [bool], then the state's fingerprint, for a [create] and a
   [for_thread] stream; and the state after one [jump]. Recorded from
   the boxed-record generator, so a change of state layout must
   reproduce them exactly. *)
let fold_draws draw =
  let acc = ref 0 in
  for _ = 1 to 10_000 do
    acc := (!acc * 31) + draw ()
  done;
  !acc

let golden_stream name t ~ints ~bits30 ~bools ~fingerprint =
  List.iter2
    (fun bound want ->
      check_int
        (Printf.sprintf "%s: int %d" name bound)
        want
        (fold_draws (fun () -> Prng.int t bound)))
    [ 1; 7; 1 lsl 20; 1 lsl 60 ]
    ints;
  check_int (name ^ ": bits30") bits30
    (fold_draws (fun () -> Prng.Xoshiro256.bits30 t));
  check_int (name ^ ": bool") bools
    (fold_draws (fun () -> Bool.to_int (Prng.bool t)));
  check_int (name ^ ": fingerprint") fingerprint (Prng.fingerprint t)

let golden_streams () =
  golden_stream "create 42" (Prng.create 42L)
    ~ints:[ 0; -4078747932243931889; 1982826576933021034; 3752151106804579587 ]
    ~bits30:(-1014266561141818549) ~bools:(-519379448213633448)
    ~fingerprint:537843508370778541;
  golden_stream "for_thread 7 3"
    (Prng.for_thread ~seed:7L ~id:3)
    ~ints:
      [ 0; -4311952896134730705; 29497936406328912; -3418872592699725139 ]
    ~bits30:4286362673613667047 ~bools:(-2277857279157868280)
    ~fingerprint:1880586362113445168

let golden_jump () =
  let t = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  Prng.Xoshiro256.jump t;
  check_int "fingerprint" 2486196360376529746 (Prng.fingerprint t);
  List.iter
    (fun want -> Alcotest.(check int64) "output" want (Prng.Xoshiro256.next t))
    [
      0xBBD2F312298443D8L; 0x62E57DB2D5706577L; 0x34D1890374A6D72BL;
      0xA0425028CA8B66A0L;
    ]

(* Every call site that draws an [int] or a [bool] (leaf probes, keys,
   operation choices) runs allocation-free: the state is never boxed. *)
let draws_allocate_nothing () =
  let t = Prng.create 1L in
  let acc = ref 0 in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100_000 do
      acc := !acc + f ()
    done;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.)) "int" 0. (words (fun () -> Prng.int t 1000));
  Alcotest.(check (float 0.))
    "int_in" 0.
    (words (fun () -> Prng.int_in t ~lo:(-5) ~hi:5));
  Alcotest.(check (float 0.))
    "bits30" 0.
    (words (fun () -> Prng.Xoshiro256.bits30 t));
  Alcotest.(check (float 0.))
    "bool" 0.
    (words (fun () -> Bool.to_int (Prng.bool t)));
  check "draws consumed" true (!acc <> 0)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "reference vector" `Quick splitmix_vector;
          Alcotest.test_case "copy" `Quick splitmix_copy;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "first outputs" `Quick xoshiro_first_outputs;
          Alcotest.test_case "zero state rejected" `Quick
            xoshiro_zero_state_rejected;
          Alcotest.test_case "deterministic" `Quick xoshiro_deterministic;
          Alcotest.test_case "copy independent" `Quick xoshiro_copy_independent;
          Alcotest.test_case "bits30 range" `Quick bits30_range;
        ] );
      ( "bounded draws",
        [
          Alcotest.test_case "bounds respected" `Quick bounds_respected;
          Alcotest.test_case "int_in range" `Quick int_in_range;
          Alcotest.test_case "rough uniformity" `Quick rough_uniformity;
          Alcotest.test_case "invalid bounds" `Quick invalid_bounds;
          QCheck_alcotest.to_alcotest prop_next_int_bound;
        ] );
      ( "streams",
        [
          Alcotest.test_case "thread streams differ" `Quick
            thread_streams_differ;
          Alcotest.test_case "jump disjoint" `Quick jump_disjoint;
          Alcotest.test_case "golden streams" `Quick golden_streams;
          Alcotest.test_case "golden jump" `Quick golden_jump;
          Alcotest.test_case "a draw allocates nothing" `Quick
            draws_allocate_nothing;
          Alcotest.test_case "shuffle permutation" `Quick
            shuffle_is_permutation;
        ] );
    ]
