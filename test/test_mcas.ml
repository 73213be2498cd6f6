(* Tests for the software multi-word CAS (RDCSS / CASN) substrate. *)

module M = Mcas.Make (Runtime.Real.Atomic)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Values are boxed so physical equality is meaningful. [box] builds the
   record through [Sys.opaque_identity] so the compiler cannot share
   structurally equal literals as one static block, which would make
   [box 5 == box 5] true. *)
type box = { v : int }

let box v = { v = Sys.opaque_identity v }

let get_v loc = (M.get loc).v

let single_cas () =
  let a0 = box 1 in
  let l = M.make a0 in
  check "cas succeeds on match" true (M.cas l a0 (box 2));
  check_int "value updated" 2 (get_v l);
  check "cas fails on stale expected" false (M.cas l a0 (box 3));
  check_int "value unchanged" 2 (get_v l)

let physical_equality_semantics () =
  (* two structurally equal but physically distinct boxes do not match *)
  let a = box 5 in
  let l = M.make a in
  check "struct-equal but phys-distinct fails" false (M.cas l (box 5) (box 6));
  check "exact value succeeds" true (M.cas l a (box 6))

let set_overwrites () =
  let l = M.make (box 1) in
  M.set l (box 9);
  check_int "set" 9 (get_v l)

let dcas_both_or_neither () =
  let a0 = box 1 and b0 = box 2 in
  let a = M.make a0 and b = M.make b0 in
  check "dcas succeeds" true (M.dcas a a0 (box 10) b b0 (box 20));
  check_int "a" 10 (get_v a);
  check_int "b" 20 (get_v b);
  let a1 = M.get a and b1 = M.get b in
  (* one leg stale: nothing changes *)
  check "dcas fails on first leg" false (M.dcas a a0 (box 0) b b1 (box 0));
  check "dcas fails on second leg" false (M.dcas a a1 (box 0) b b0 (box 0));
  check_int "a unchanged" 10 (get_v a);
  check_int "b unchanged" 20 (get_v b)

let dcss_swaps_only_data () =
  let c0 = box 1 and d0 = box 2 in
  let ctl = M.make c0 and data = M.make d0 in
  check "dcss succeeds" true (M.dcss ctl c0 data d0 (box 22));
  check_int "data updated" 22 (get_v data);
  check "control untouched" true (M.get ctl == c0);
  check "dcss fails on control mismatch" false
    (M.dcss ctl (box 1) data (M.get data) (box 0));
  check_int "data unchanged" 22 (get_v data)

let casn_k3 () =
  let xs = Array.init 3 (fun i -> box i) in
  let locs = Array.map M.make xs in
  let ops = Array.mapi (fun i l -> (l, xs.(i), box (100 + i))) locs in
  check "casn k=3 succeeds" true (M.casn ops);
  Array.iteri (fun i l -> check_int "updated" (100 + i) (get_v l)) locs;
  (* replay fails (all legs stale) and leaves values alone *)
  check "replay fails" false (M.casn ops);
  Array.iteri (fun i l -> check_int "unchanged" (100 + i) (get_v l)) locs

let casn_partial_failure_restores () =
  let a0 = box 1 and b0 = box 2 and c0 = box 3 in
  let a = M.make a0 and b = M.make b0 and c = M.make c0 in
  (* middle leg is stale *)
  check "casn fails" false
    (M.casn [| (a, a0, box 0); (b, box 2, box 0); (c, c0, box 0) |]);
  check "a restored" true (M.get a == a0);
  check "b untouched" true (M.get b == b0);
  check "c untouched" true (M.get c == c0)

let casn_empty_and_singleton () =
  check "empty casn" true (M.casn [||]);
  let a0 = box 1 in
  let a = M.make a0 in
  check "singleton casn = cas" true (M.casn [| (a, a0, box 5) |]);
  check_int "applied" 5 (get_v a)

let casn_unsorted_input () =
  (* ids increase with allocation order; pass ops in reverse order *)
  let a0 = box 1 and b0 = box 2 and c0 = box 3 in
  let a = M.make a0 and b = M.make b0 and c = M.make c0 in
  check "reverse-order ops accepted" true
    (M.casn [| (c, c0, box 33); (b, b0, box 22); (a, a0, box 11) |]);
  check_int "a" 11 (get_v a);
  check_int "b" 22 (get_v b);
  check_int "c" 33 (get_v c)

(* Aliased legs break the distinct-locations contract: each entry point
   rejects them rather than silently dropping one of the writes. *)
let aliased_legs_rejected () =
  let a0 = box 1 and b0 = box 2 and c0 = box 3 in
  let a = M.make a0 and b = M.make b0 and c = M.make c0 in
  let rejects name f =
    match f () with
    | (_ : bool) -> Alcotest.failf "%s accepted aliased legs" name
    | exception Invalid_argument _ -> ()
  in
  rejects "dcas" (fun () -> M.dcas a a0 (box 10) a a0 (box 20));
  rejects "dcss" (fun () -> M.dcss a a0 a a0 (box 20));
  rejects "casn" (fun () ->
      M.casn [| (c, c0, box 30); (b, b0, box 20); (c, c0, box 70) |]);
  check "a untouched" true (M.get a == a0);
  check "b untouched" true (M.get b == b0);
  check "c untouched" true (M.get c == c0)

(* The lean descriptor path: an uncontended [dcas] or [dcss] on immediate
   values allocates only its legs, status cell, descriptors and
   written-back [V] blocks (28 words). The budget pins it, so a per-call
   copy, sort or closure cannot creep back into the two-leg path
   unnoticed. *)
let two_leg_allocation_budget () =
  let words_per_call f =
    let n = 1000 in
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      f i
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let a = M.make 0 and b = M.make 0 in
  let failed = ref 0 in
  let dcas =
    words_per_call (fun i ->
        if not (M.dcas a (i - 1) i b (i - 1) i) then incr failed)
  in
  (* [a] now holds 1000: the control leg of every dcss *)
  let dcss =
    words_per_call (fun i ->
        if not (M.dcss a 1000 b (999 + i) (1000 + i)) then incr failed)
  in
  Printf.printf "words per call: dcas %.1f, dcss %.1f\n" dcas dcss;
  check_int "every uncontended call succeeds" 0 !failed;
  check "dcas <= 40 words" true (dcas <= 40.);
  check "dcss <= 40 words" true (dcss <= 40.)

(* qcheck: a random sequence of cas/dcas against a two-cell model *)
let prop_model =
  QCheck.Test.make ~name:"cas/dcas sequence matches a sequential model"
    ~count:200
    QCheck.(list (pair (int_bound 3) (pair small_int small_int)))
    (fun script ->
      let a = M.make (box 0) and b = M.make (box 0) in
      let ma = ref 0 and mb = ref 0 in
      List.iter
        (fun (op, (x, y)) ->
          match op with
          | 0 ->
              let cur = M.get a in
              let ok = M.cas a cur (box x) in
              if ok then ma := x;
              assert (ok (* cur is always current sequentially *))
          | 1 ->
              let cur = M.get b in
              if M.cas b cur (box y) then mb := y
          | 2 ->
              let ca = M.get a and cb = M.get b in
              if M.dcas a ca (box x) b cb (box y) then begin
                ma := x;
                mb := y
              end
          | _ ->
              let ca = M.get a and cb = M.get b in
              if M.dcss a ca b cb (box y) then mb := y)
        script;
      get_v a = !ma && get_v b = !mb)

(* concurrent: transfers between two cells via dcas preserve the sum *)
let concurrent_dcas_preserves_sum () =
  let a = M.make (box 1000) and b = M.make (box 1000) in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed:3L ~id:d in
            let moved = ref 0 in
            while !moved < 500 do
              let ca = M.get a and cb = M.get b in
              let amt = 1 + Prng.int rng 5 in
              if
                M.dcas a ca (box (ca.v - amt)) b cb (box (cb.v + amt))
              then incr moved
            done))
  in
  List.iter Domain.join doms;
  check_int "sum preserved" 2000 (get_v a + get_v b)

(* concurrent: counters via casn over 3 cells, all incremented together *)
let concurrent_casn_triple () =
  let cells = Array.init 3 (fun _ -> M.make (box 0)) in
  let per = 300 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let done_ = ref 0 in
            while !done_ < per do
              let cur = Array.map M.get cells in
              let ops =
                Array.mapi (fun i l -> (l, cur.(i), box (cur.(i).v + 1))) cells
              in
              if M.casn ops then incr done_
            done))
  in
  List.iter Domain.join doms;
  Array.iter (fun l -> check_int "all equal" (4 * per) (get_v l)) cells

(* deterministic interleavings in the simulator *)
let sim_dcas_sum () =
  let module SM = Mcas.Make (Sim.Runtime.Atomic) in
  let a = SM.make (box 500) and b = SM.make (box 500) in
  let body _tid =
    let moved = ref 0 in
    while !moved < 100 do
      let ca = SM.get a and cb = SM.get b in
      if SM.dcas a ca (box (ca.v - 1)) b cb (box (cb.v + 1)) then incr moved
    done
  in
  List.iter
    (fun seed ->
      ignore (Sim.Sched.run ~seed (Array.make 6 body));
      ())
    [ 1L; 2L; 3L ];
  (* after 3 runs x 6 threads x 100 transfers *)
  check_int "a" (500 - 1800) (SM.get a).v;
  check_int "b" (500 + 1800) (SM.get b).v

let () =
  Alcotest.run "mcas"
    [
      ( "sequential",
        [
          Alcotest.test_case "single cas" `Quick single_cas;
          Alcotest.test_case "physical equality" `Quick
            physical_equality_semantics;
          Alcotest.test_case "set" `Quick set_overwrites;
          Alcotest.test_case "dcas both-or-neither" `Quick dcas_both_or_neither;
          Alcotest.test_case "dcss" `Quick dcss_swaps_only_data;
          Alcotest.test_case "casn k=3" `Quick casn_k3;
          Alcotest.test_case "casn failure restores" `Quick
            casn_partial_failure_restores;
          Alcotest.test_case "casn degenerate sizes" `Quick
            casn_empty_and_singleton;
          Alcotest.test_case "casn unsorted input" `Quick casn_unsorted_input;
          Alcotest.test_case "aliased legs rejected" `Quick
            aliased_legs_rejected;
          Alcotest.test_case "two-leg allocation budget" `Quick
            two_leg_allocation_budget;
          QCheck_alcotest.to_alcotest prop_model;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "dcas preserves sum (domains)" `Quick
            concurrent_dcas_preserves_sum;
          Alcotest.test_case "casn triple counters (domains)" `Quick
            concurrent_casn_triple;
          Alcotest.test_case "dcas sum (simulated schedules)" `Quick
            sim_dcas_sum;
        ] );
    ]
