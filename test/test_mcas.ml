(* Tests for the software multi-word CAS (RDCSS / CASN) substrate. *)

module M = Mcas.Make (Runtime.Real.Atomic)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The cells hold a constructor this file declares. [box] builds a fresh
   block through [Sys.opaque_identity], so the compiler cannot share
   structurally equal literals as one static block, which would make
   [box 5 == box 5] true. *)
type _ M.state += Int of { v : int }

let box v = Int { v = Sys.opaque_identity v }
let unbox = function Int { v } -> v | _ -> assert false

(* The five calls that both handles offer: cells, and the locations
   that box any value and compare payloads (here ints, so payload
   equality is value equality). Every mismatch below uses a different
   value, so it fails under either equality. *)
module type OPS = sig
  type t
  type v

  val box : int -> v
  (** On cells a fresh block, physically distinct from every other; on
      locations the int itself. *)

  val unbox : v -> int
  val make : v -> t
  val get : t -> v
  val cas : t -> v -> v -> bool
  val dcas : t -> v -> v -> t -> v -> v -> bool
  val dcss : t -> v -> t -> v -> v -> bool
end

module type HANDLE = sig
  include OPS

  val name : string

  val two_leg_words : float * float
  (** Words an uncontended [dcas] and [dcss] allocate. *)
end

module Cells = struct
  let name = "cells"

  type t = unit M.Cell.t
  type v = unit M.state

  let box = box
  let unbox = unbox
  let make = M.Cell.make
  let get = M.Cell.get
  let cas = M.Cell.cas
  let dcas = M.Cell.dcas
  let dcss = M.Cell.dcss

  (* two legs (11), the status cell (2), the CASN descriptor (4) and two
     RDCSS descriptors (10) *)
  let two_leg_words = (27., 27.)
end

module Locations = struct
  let name = "locations"

  type t = int M.loc
  type v = int

  let box v = v
  let unbox v = v
  let make = M.make
  let get = M.get
  let cas = M.cas
  let dcas = M.dcas
  let dcss = M.dcss

  (* a 3-word box per written value on top of the cell operation; the
     dcss's identity leg re-installs the box it read *)
  let two_leg_words = (33., 30.)
end

let words_per_call f =
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

module Shared (H : HANDLE) = struct
  let box = H.box
  let get_v loc = H.unbox (H.get loc)

  let single_cas () =
    let a0 = box 1 in
    let l = H.make a0 in
    check "cas succeeds on match" true (H.cas l a0 (box 2));
    check_int "value updated" 2 (get_v l);
    check "cas fails on stale expected" false (H.cas l a0 (box 3));
    check_int "value unchanged" 2 (get_v l)

  let dcas_both_or_neither () =
    let a0 = box 1 and b0 = box 2 in
    let a = H.make a0 and b = H.make b0 in
    check "dcas succeeds" true (H.dcas a a0 (box 10) b b0 (box 20));
    check_int "a" 10 (get_v a);
    check_int "b" 20 (get_v b);
    let a1 = H.get a and b1 = H.get b in
    (* one leg stale: nothing changes *)
    check "dcas fails on first leg" false (H.dcas a a0 (box 0) b b1 (box 0));
    check "dcas fails on second leg" false (H.dcas a a1 (box 0) b b0 (box 0));
    check_int "a unchanged" 10 (get_v a);
    check_int "b unchanged" 20 (get_v b)

  let dcss_swaps_only_data () =
    let c0 = box 1 and d0 = box 2 in
    let ctl = H.make c0 and data = H.make d0 in
    check "dcss succeeds" true (H.dcss ctl c0 data d0 (box 22));
    check_int "data updated" 22 (get_v data);
    check "control untouched" true (H.get ctl == c0);
    check "dcss fails on control mismatch" false
      (H.dcss ctl (box 0) data (H.get data) (box 0));
    check_int "data unchanged" 22 (get_v data)

  (* Aliased legs break the distinct-cells contract: each entry point
     rejects them rather than silently dropping one of the writes. *)
  let aliased_legs_rejected () =
    let a0 = box 1 in
    let a = H.make a0 in
    let rejects name f =
      match f () with
      | (_ : bool) -> Alcotest.failf "%s accepted aliased legs" name
      | exception Invalid_argument _ -> ()
    in
    rejects "dcas" (fun () -> H.dcas a a0 (box 10) a a0 (box 20));
    rejects "dcss" (fun () -> H.dcss a a0 a a0 (box 20));
    check "a untouched" true (H.get a == a0)

  (* The lean descriptor path: an uncontended [dcas] or [dcss] on values
     built beforehand allocates exactly its legs, status cell and
     descriptors, so a per-call copy, sort or closure cannot creep back
     into the two-leg path unnoticed. *)
  let two_leg_allocation_budget () =
    let vals = Array.init 2001 box in
    let a = H.make vals.(0) and b = H.make vals.(0) in
    let failed = ref 0 in
    let dcas =
      words_per_call (fun i ->
          if not (H.dcas a vals.(i - 1) vals.(i) b vals.(i - 1) vals.(i)) then
            incr failed)
    in
    (* [a] now holds [vals.(1000)]: the control leg of every dcss *)
    let dcss =
      words_per_call (fun i ->
          if not (H.dcss a vals.(1000) b vals.(999 + i) vals.(1000 + i)) then
            incr failed)
    in
    Printf.printf "%s: words per call: dcas %.1f, dcss %.1f\n" H.name dcas
      dcss;
    check_int "every uncontended call succeeds" 0 !failed;
    let dcas_w, dcss_w = H.two_leg_words in
    Alcotest.(check (float 0.)) "dcas words" dcas_w dcas;
    Alcotest.(check (float 0.)) "dcss words" dcss_w dcss

  (* Words an uncontended [cas] from one prebuilt value to the next
     allocates; each handle pins its own figure. *)
  let cas_words () =
    let vals = Array.init 1001 box in
    let l = H.make vals.(0) in
    let failed = ref 0 in
    let words =
      words_per_call (fun i ->
          if not (H.cas l vals.(i - 1) vals.(i)) then incr failed)
    in
    Printf.printf "%s: words per cas %.1f\n" H.name words;
    check_int "every uncontended cas succeeds" 0 !failed;
    words

  (* qcheck: a random sequence of cas/dcas/dcss against a two-cell
     model *)
  let prop_model =
    QCheck.Test.make ~name:"cas/dcas sequence matches a sequential model"
      ~count:200
      QCheck.(list (pair (int_bound 3) (pair small_int small_int)))
      (fun script ->
        let a = H.make (box 0) and b = H.make (box 0) in
        let ma = ref 0 and mb = ref 0 in
        List.iter
          (fun (op, (x, y)) ->
            match op with
            | 0 ->
                let cur = H.get a in
                let ok = H.cas a cur (box x) in
                if ok then ma := x;
                assert (ok (* cur is always current sequentially *))
            | 1 ->
                let cur = H.get b in
                if H.cas b cur (box y) then mb := y
            | 2 ->
                let ca = H.get a and cb = H.get b in
                if H.dcas a ca (box x) b cb (box y) then begin
                  ma := x;
                  mb := y
                end
            | _ ->
                let ca = H.get a and cb = H.get b in
                if H.dcss a ca b cb (box y) then mb := y)
          script;
        get_v a = !ma && get_v b = !mb)

  let cases =
    [
      Alcotest.test_case "single cas" `Quick single_cas;
      Alcotest.test_case "dcas both-or-neither" `Quick dcas_both_or_neither;
      Alcotest.test_case "dcss" `Quick dcss_swaps_only_data;
      Alcotest.test_case "aliased legs rejected" `Quick aliased_legs_rejected;
      Alcotest.test_case "two-leg allocation budget" `Quick
        two_leg_allocation_budget;
      QCheck_alcotest.to_alcotest prop_model;
    ]
end

module On_cells = Shared (Cells)
module On_locs = Shared (Locations)

(* ---- cells only ---------------------------------------------------- *)

let get_v c = unbox (M.Cell.get c)

let physical_equality_semantics () =
  (* two structurally equal but physically distinct states do not match,
     in a [cas], on either [dcas] leg or on a [dcss] control leg *)
  let a = box 5 in
  let c = M.Cell.make a in
  check "struct-equal but phys-distinct fails" false
    (M.Cell.cas c (box 5) (box 6));
  check "exact state succeeds" true (M.Cell.cas c a (box 6));
  let g0 = box 1 and t0 = box 2 in
  let guard = M.Cell.make g0 and target = M.Cell.make t0 in
  check "dcss fails on a struct-equal control" false
    (M.Cell.dcss guard (box 1) target t0 (box 3));
  check "dcas fails on a struct-equal first leg" false
    (M.Cell.dcas guard (box 1) (box 3) target t0 (box 4));
  check "dcas fails on a struct-equal second leg" false
    (M.Cell.dcas guard g0 (box 3) target (box 2) (box 4));
  check "guard untouched" true (M.Cell.get guard == g0);
  check "target untouched" true (M.Cell.get target == t0)

let casn_k3 () =
  let xs = Array.init 3 (fun i -> box i) in
  let cells = Array.map M.Cell.make xs in
  let ops = Array.mapi (fun i c -> (c, xs.(i), box (100 + i))) cells in
  check "casn k=3 succeeds" true (M.Cell.casn ops);
  Array.iteri (fun i c -> check_int "updated" (100 + i) (get_v c)) cells;
  (* replay fails (all legs stale) and leaves states alone *)
  check "replay fails" false (M.Cell.casn ops);
  Array.iteri (fun i c -> check_int "unchanged" (100 + i) (get_v c)) cells

let casn_partial_failure_restores () =
  let a0 = box 1 and b0 = box 2 and c0 = box 3 in
  let a = M.Cell.make a0 and b = M.Cell.make b0 and c = M.Cell.make c0 in
  (* middle leg is stale *)
  check "casn fails" false
    (M.Cell.casn [| (a, a0, box 0); (b, box 2, box 0); (c, c0, box 0) |]);
  check "a restored" true (M.Cell.get a == a0);
  check "b untouched" true (M.Cell.get b == b0);
  check "c untouched" true (M.Cell.get c == c0)

let casn_empty_and_singleton () =
  check "empty casn" true (M.Cell.casn [||]);
  let a0 = box 1 in
  let a = M.Cell.make a0 in
  check "singleton casn = cas" true (M.Cell.casn [| (a, a0, box 5) |]);
  check_int "applied" 5 (get_v a)

let casn_unsorted_input () =
  (* reverse allocation order: cells install in the order given, and
     sequentially that succeeds *)
  let a0 = box 1 and b0 = box 2 and c0 = box 3 in
  let a = M.Cell.make a0 and b = M.Cell.make b0 and c = M.Cell.make c0 in
  check "reverse-order ops accepted" true
    (M.Cell.casn [| (c, c0, box 33); (b, b0, box 22); (a, a0, box 11) |]);
  check_int "a" 11 (get_v a);
  check_int "b" 22 (get_v b);
  check_int "c" 33 (get_v c)

let casn_aliased_rejected () =
  let b0 = box 2 and c0 = box 3 in
  let b = M.Cell.make b0 and c = M.Cell.make c0 in
  (match
     M.Cell.casn [| (c, c0, box 30); (b, b0, box 20); (c, c0, box 70) |]
   with
  | (_ : bool) -> Alcotest.fail "casn accepted aliased legs"
  | exception Invalid_argument _ -> ());
  check "b untouched" true (M.Cell.get b == b0);
  check "c untouched" true (M.Cell.get c == c0)

(* A cell holds the client's state itself: a CAS from one prebuilt
   state to another allocates nothing. *)
let cell_cas_allocates_nothing () =
  Alcotest.(check (float 0.)) "cas words" 0. (On_cells.cas_words ())

(* ---- locations only ------------------------------------------------ *)

(* A location compares payloads: over ints, an equal value matches
   whether or not it is the one stored. *)
let payload_equality_on_ints () =
  let l = M.make 5 in
  check "an equal int matches" true (M.cas l 5 6);
  check_int "value updated" 6 (M.get l);
  check "a different int fails" false (M.cas l 5 7);
  check_int "value unchanged" 6 (M.get l)

(* A location's [cas] allocates the 3-word box around the value it
   writes. *)
let loc_cas_allocates_a_box () =
  Alcotest.(check (float 0.)) "cas words" 3. (On_locs.cas_words ())

(* ---- concurrent ---------------------------------------------------- *)

(* transfers between two cells via dcas preserve the sum *)
let concurrent_dcas_preserves_sum (module H : OPS) () =
  let a = H.make (H.box 1000) and b = H.make (H.box 1000) in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed:3L ~id:d in
            let moved = ref 0 in
            while !moved < 500 do
              let ca = H.get a and cb = H.get b in
              let amt = 1 + Prng.int rng 5 in
              if
                H.dcas a ca
                  (H.box (H.unbox ca - amt))
                  b cb
                  (H.box (H.unbox cb + amt))
              then incr moved
            done))
  in
  List.iter Domain.join doms;
  check_int "sum preserved" 2000 (H.unbox (H.get a) + H.unbox (H.get b))

(* counters via casn over 3 cells, all incremented together *)
let concurrent_casn_triple () =
  let cells = Array.init 3 (fun _ -> M.Cell.make (box 0)) in
  let per = 300 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let done_ = ref 0 in
            while !done_ < per do
              let cur = Array.map M.Cell.get cells in
              let ops =
                Array.mapi
                  (fun i c -> (c, cur.(i), box (unbox cur.(i) + 1)))
                  cells
              in
              if M.Cell.casn ops then incr done_
            done))
  in
  List.iter Domain.join doms;
  Array.iter (fun c -> check_int "all equal" (4 * per) (get_v c)) cells

module SM = Mcas.Make (Sim.Runtime.Atomic)

type _ SM.state += Sim_int of int

module Sim_cells = struct
  type t = unit SM.Cell.t
  type v = unit SM.state

  let box v = Sim_int v
  let unbox = function Sim_int v -> v | _ -> assert false
  let make = SM.Cell.make
  let get = SM.Cell.get
  let cas = SM.Cell.cas
  let dcas = SM.Cell.dcas
  let dcss = SM.Cell.dcss
end

module Sim_locs = struct
  type t = int SM.loc
  type v = int

  let box v = v
  let unbox v = v
  let make = SM.make
  let get = SM.get
  let cas = SM.cas
  let dcas = SM.dcas
  let dcss = SM.dcss
end

(* Deterministic interleavings in the simulator: over three seeds, six
   threads each make 100 successful DCASes from [a] to [b]. Two threads
   in three move 1; the third moves nothing, rewriting both with the
   values it read. On locations (ints) such a rewrite installs fresh
   boxes with the same payloads, so a transfer that read the old boxes
   fails in the cell operation while its payloads still match, and the
   wrapper retries on the new boxes. *)
let sim_dcas_sum (module H : OPS) () =
  let a = H.make (H.box 500) and b = H.make (H.box 500) in
  let body tid =
    let amt = if tid mod 3 = 2 then 0 else 1 in
    let moved = ref 0 in
    while !moved < 100 do
      let ca = H.get a and cb = H.get b in
      if
        H.dcas a ca
          (H.box (H.unbox ca - amt))
          b cb
          (H.box (H.unbox cb + amt))
      then incr moved
    done
  in
  List.iter
    (fun seed -> ignore (Sim.Sched.run ~seed (Array.make 6 body)))
    [ 1L; 2L; 3L ];
  (* 3 runs x 4 moving threads x 100 transfers *)
  check_int "a" (500 - 1200) (H.unbox (H.get a));
  check_int "b" (500 + 1200) (H.unbox (H.get b))

(* The control leg in the simulator: over three seeds, thread 0 closes
   [gate] (0 to 1) fifty times, reads [count] before and after three
   more accesses and reopens [gate] with a fresh 0; the other five
   threads each make 100 DCSSes that add 1 to [count] while [gate] holds
   0. A DCSS that read [gate] open must not commit once it is closed, so
   [count] never moves between the closer's two reads. A DCSS that read
   the 0 a reopening replaced fails in the cell operation; on locations
   the payload still matches, and the wrapper retries on the new box.
   The closer is [gate]'s only writer, so it knows the open value it
   closes. *)
let sim_dcss_control (module H : OPS) () =
  let open0 = H.box 0 in
  let gate = H.make open0 and count = H.make (H.box 0) in
  let opened = ref open0 in
  let closes = ref 0 and moved_while_closed = ref 0 in
  let closer () =
    for _ = 1 to 50 do
      let closed = H.box 1 in
      if H.cas gate !opened closed then begin
        incr closes;
        let before = H.unbox (H.get count) in
        for _ = 1 to 3 do
          ignore (H.get gate)
        done;
        if H.unbox (H.get count) <> before then incr moved_while_closed;
        let reopened = H.box 0 in
        if not (H.cas gate closed reopened) then
          failwith "the closer lost its own gate";
        opened := reopened
      end
    done
  in
  let adder () =
    let moved = ref 0 in
    while !moved < 100 do
      let g = H.get gate in
      let c = H.get count in
      if H.unbox g = 0 && H.dcss gate g count c (H.box (H.unbox c + 1)) then
        incr moved
    done
  in
  List.iter
    (fun seed ->
      ignore
        (Sim.Sched.run ~seed
           (Array.init 6 (fun i _ -> if i = 0 then closer () else adder ()))))
    [ 1L; 2L; 3L ];
  check_int "every close succeeds" 150 !closes;
  check_int "no dcss commits while closed" 0 !moved_while_closed;
  (* 3 runs x 5 adders x 100 increments *)
  check_int "count" 1500 (H.unbox (H.get count));
  check_int "gate reopened" 0 (H.unbox (H.get gate))

let () =
  Alcotest.run "mcas"
    [
      ( "cells",
        On_cells.cases
        @ [
            Alcotest.test_case "cas allocates nothing" `Quick
              cell_cas_allocates_nothing;
            Alcotest.test_case "physical equality" `Quick
              physical_equality_semantics;
            Alcotest.test_case "casn k=3" `Quick casn_k3;
            Alcotest.test_case "casn failure restores" `Quick
              casn_partial_failure_restores;
            Alcotest.test_case "casn degenerate sizes" `Quick
              casn_empty_and_singleton;
            Alcotest.test_case "casn unsorted input" `Quick casn_unsorted_input;
            Alcotest.test_case "casn aliased legs rejected" `Quick
              casn_aliased_rejected;
          ] );
      ( "locations",
        On_locs.cases
        @ [
            Alcotest.test_case "payload equality on ints" `Quick
              payload_equality_on_ints;
            Alcotest.test_case "cas allocates a box" `Quick
              loc_cas_allocates_a_box;
          ] );
      ( "concurrent",
        [
          Alcotest.test_case "dcas preserves sum (domains)" `Quick
            (concurrent_dcas_preserves_sum (module Cells));
          Alcotest.test_case "dcas preserves sum on locations (domains)"
            `Quick
            (concurrent_dcas_preserves_sum (module Locations));
          Alcotest.test_case "casn triple counters (domains)" `Quick
            concurrent_casn_triple;
          Alcotest.test_case "dcas sum (simulated schedules)" `Quick
            (sim_dcas_sum (module Sim_cells));
          Alcotest.test_case "dcas sum on locations (simulated schedules)"
            `Quick
            (sim_dcas_sum (module Sim_locs));
          Alcotest.test_case "dcss control (simulated schedules)" `Quick
            (sim_dcss_control (module Sim_cells));
          Alcotest.test_case "dcss control on locations (simulated schedules)"
            `Quick
            (sim_dcss_control (module Sim_locs));
        ] );
    ]
