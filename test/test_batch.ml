(* Batched-operation coverage: [insert_many] must be observationally
   equivalent to element-wise insertion on every variant, and
   [extract_many]/[insert_many] round trips must conserve the multiset
   and the mound invariant. Concurrent interleavings of the batched
   operations are exercised in test_dpor and test_linearizability; this
   suite pins the sequential semantics all of those rely on. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One handle per variant so the same properties run across all three
   implementations. Every batch below is sorted, as [insert_many]
   requires, so the handle's own sort leaves it unchanged. *)
let suts =
  let module S = Mound.Seq_int in
  let module L = Mound.Lf_int in
  let module K = Mound.Lock_int in
  [
    ("seq", fun () -> Harness.Pq.of_mound (module S) (S.create ~seed:5L ()));
    ("lf", fun () -> Harness.Pq.of_mound (module L) (L.create ()));
    ("lock", fun () -> Harness.Pq.of_mound (module K) (K.create ()));
  ]

let drain (sut : Harness.Pq.t) =
  let rec go acc =
    match sut.extract_min () with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []

(* Same seeded key stream fed to a batched and an element-wise instance
   of each variant: draining both must give the same sorted sequence. *)
let batched_equals_elementwise () =
  List.iter
    (fun (name, (mk : unit -> Harness.Pq.t)) ->
      let batched = mk () and one_at_a_time = mk () in
      let rng = Prng.create 91L in
      for round = 1 to 40 do
        let n = 1 + Prng.int rng 64 in
        let keys = List.init n (fun _ -> Prng.int rng 10_000) in
        let sorted = List.sort compare keys in
        batched.insert_many sorted;
        List.iter one_at_a_time.insert keys;
        (* interleave some extraction so batches land in grown trees *)
        if round mod 3 = 0 then begin
          let a = batched.extract_min () and b = one_at_a_time.extract_min () in
          if a <> b then
            Alcotest.failf "%s: extract diverged (round %d)" name round
        end
      done;
      check (name ^ ": invariant (batched)") true (batched.check ());
      check
        (name ^ ": invariant (element-wise)")
        true
        (one_at_a_time.check ());
      if drain batched <> drain one_at_a_time then
        Alcotest.failf "%s: drains diverged" name)
    suts

(* Empty and singleton batches are legal and behave like the obvious
   element-wise program. *)
let degenerate_batches () =
  List.iter
    (fun (name, (mk : unit -> Harness.Pq.t)) ->
      let sut = mk () in
      sut.insert_many [];
      check_int (name ^ ": empty batch") 0 (sut.size ());
      sut.insert_many [ 7 ];
      check_int (name ^ ": singleton batch") 1 (sut.size ());
      sut.insert_many [ 3; 3; 9 ];
      check (name ^ ": invariant") true (sut.check ());
      check
        (name ^ ": duplicates preserved")
        true
        (drain sut = [ 3; 3; 7; 9 ]))
    suts

(* extract_many hands back one node's sorted list; insert_many is its
   dual. Round-tripping repeatedly must conserve the multiset, keep the
   invariant, and leave the queue draining in sorted order. *)
let extract_insert_roundtrip () =
  List.iter
    (fun (name, (mk : unit -> Harness.Pq.t)) ->
      let sut = mk () in
      let rng = Prng.create 17L in
      let input = List.init 3_000 (fun _ -> Prng.int rng 100_000) in
      sut.insert_many (List.sort compare input);
      for _ = 1 to 80 do
        let b = sut.extract_many () in
        check (name ^ ": batch sorted") true (b = List.sort compare b);
        sut.insert_many b
      done;
      check (name ^ ": invariant") true (sut.check ());
      check_int (name ^ ": size conserved") 3_000 (sut.size ());
      check
        (name ^ ": drains to sorted input")
        true
        (drain sut = List.sort compare input))
    suts

(* The batched path must also agree across variants: same keys, same
   drained output, regardless of implementation. *)
let variants_agree () =
  let rng = Prng.create 23L in
  let batches =
    List.init 30 (fun _ ->
        let n = 1 + Prng.int rng 50 in
        List.sort compare (List.init n (fun _ -> Prng.int rng 5_000)))
  in
  let run (_, (mk : unit -> Harness.Pq.t)) =
    let sut = mk () in
    List.iter sut.insert_many batches;
    drain sut
  in
  match List.map run suts with
  | [ a; b; c ] ->
      check "seq = lf" true (a = b);
      check "seq = lock" true (a = c)
  | _ -> assert false

let () =
  Alcotest.run "batch"
    [
      ( "insert_many",
        [
          Alcotest.test_case "batched equals element-wise" `Quick
            batched_equals_elementwise;
          Alcotest.test_case "degenerate batches" `Quick degenerate_batches;
          Alcotest.test_case "variants agree" `Quick variants_agree;
        ] );
      ( "round trip",
        [
          Alcotest.test_case "extract_many/insert_many conserves" `Quick
            extract_insert_roundtrip;
        ] );
    ]
