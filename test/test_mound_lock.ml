(* Tests for the fine-grained locking mound (single-threaded semantics;
   concurrency is covered in test_concurrent and test_sim_concurrent). *)

module K = Mound.Lock_int

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sut () = Harness.Pq.of_mound (module K) (K.create ())

let prop_model =
  QCheck.Test.make ~name:"matches sorted-multiset model" ~count:120
    Model.ops_arbitrary
    (fun script -> Model.agrees_with_model make_sut script)

let heapsort () =
  let rng = Prng.create 41L in
  let input = Array.init 20_000 (fun _ -> Prng.int rng 1_000_000) in
  let q = K.create () in
  Array.iter (K.insert q) input;
  check "invariant (also: all unlocked)" true (K.check q);
  let rec drain acc =
    match K.extract_min q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check "sorted" true (drain [] = List.sort compare (Array.to_list input))

let empty_behaviour () =
  let q = K.create () in
  check "extract" true (K.extract_min q = None);
  check "peek" true (K.peek_min q = None);
  check "many" true (K.extract_many q = []);
  check "is_empty" true (K.is_empty q);
  (* the empty extract must release the root lock: a second call works *)
  check "extract again" true (K.extract_min q = None)

let locks_released_after_each_op () =
  (* K.check verifies no node is locked; interleave every operation *)
  let q = K.create () in
  let rng = Prng.create 42L in
  for i = 1 to 5_000 do
    (match Prng.int rng 5 with
    | 0 | 1 -> K.insert q (Prng.int rng 10_000)
    | 2 -> ignore (K.extract_min q)
    | 3 -> ignore (K.extract_many q)
    | _ -> ignore (K.extract_approx q));
    if i mod 500 = 0 then check "all unlocked" true (K.check q)
  done

let extract_many_then_refill () =
  let q = K.create () in
  for v = 1 to 100 do
    K.insert q v
  done;
  let b1 = K.extract_many q in
  check "first batch has global min" true (List.hd b1 = 1);
  for v = 101 to 200 do
    K.insert q v
  done;
  check "invariant after refill" true (K.check q);
  check_int "conservation" 200 (K.size q + List.length b1)


let insert_many_roundtrip () =
  let q = K.create () in
  let rng = Prng.create 15L in
  for _ = 1 to 2000 do
    K.insert q (Prng.int rng 100_000)
  done;
  for _ = 1 to 50 do
    let b = K.extract_many q in
    K.insert_many q b
  done;
  check "invariant (and all unlocked)" true (K.check q);
  check_int "size conserved" 2000 (K.size q)

let mirrors_lf_results () =
  (* both concurrent variants drain identically from the same inputs *)
  let module L = Mound.Lf_int in
  let rng = Prng.create 43L in
  let input = Array.init 5_000 (fun _ -> Prng.int rng 50_000) in
  let lf = L.create () and lk = K.create () in
  Array.iter (fun v -> L.insert lf v; K.insert lk v) input;
  let rec drain f acc =
    match f () with None -> List.rev acc | Some v -> drain f (v :: acc)
  in
  check "identical drains" true
    (drain (fun () -> L.extract_min lf) [] = drain (fun () -> K.extract_min lk) [])

(* Lock blocks. An acquisition installs a fresh [Locked { was }] block
   pointing at the record it replaced, a release that did not change
   the list writes [was] itself back, and every tenure holds the node by
   a block of its own: the lease's witnessed writes rest on no block
   being installed twice. ocamlopt shares equal constant literals, so a
   block written as one ([Locked { was = Empty }]) would be the same
   static block for every tenure, and a revoked holder's witnessed write
   could then release a later holder's lock. A runtime that logs each
   cell's writes, newest first, shows the values one slot went
   through. One domain only. *)
module Logged = struct
  include Runtime.Real

  module Atomic = struct
    module A = Runtime.Real.Atomic

    type 'a t = { cell : 'a A.t; mutable log : 'a list }

    let make v = { cell = A.make v; log = [ v ] }
    let get r = A.get r.cell

    let set r v =
      r.log <- v :: r.log;
      A.set r.cell v

    let compare_and_set r expected v =
      let ok = A.compare_and_set r.cell expected v in
      if ok then r.log <- v :: r.log;
      ok

    let exchange r v =
      r.log <- v :: r.log;
      A.exchange r.cell v

    let fetch_and_add r n = A.fetch_and_add r.cell n
  end
end

module LK = Mound.Lock.Make (Logged) (Mound.Int_ord)

let root_slot q = LK.T.get q.LK.tree 1

let unchanged_release_reinstalls () =
  let q = LK.create () in
  LK.insert q 5;
  let slot = root_slot q in
  let before = Logged.Atomic.get slot in
  check "the root holds the key" true (LK.node_value before = Some 5);
  check "peek" true (LK.peek_min q = Some 5);
  check "the same record is back" true (Logged.Atomic.get slot == before);
  match slot.log with
  | after :: LK.Locked { was } :: _ ->
      check "the block pointed at it" true (was == before && after == before)
  | _ -> Alcotest.fail "expected a block, then the release"

let tenures_install_distinct_blocks () =
  let q = LK.create () in
  (* each round's extract takes the root's last element, so its behead
     installs a block over [Empty] *)
  for v = 1 to 3 do
    LK.insert q v;
    check "extract" true (LK.extract_min q = Some v)
  done;
  check "all unlocked" true (LK.check q);
  let held = List.filter LK.is_locked (root_slot q).log in
  let over_empty = List.filter (fun b -> b = LK.Locked { was = Empty }) held in
  (* per round: the insert's acquisition and the extract's behead *)
  check_int "blocks over Empty" 6 (List.length over_empty);
  let rec distinct = function
    | [] -> true
    | b :: rest -> List.for_all (fun b' -> b' != b) rest && distinct rest
  in
  check "no block installed twice" true (distinct held)

let sentinels_distinct () =
  check "gave_up and missed are different blocks" true (K.gave_up != K.missed)

(* The lock-block layout, pinned on one domain: 2^12 seeded keys
   filled, then drained. A tree row holds each node's atomic, the
   atomic holds the node record, and the record carries its list's
   head, so a filled mound keeps 4.57 reachable words per element (5.25
   with the lock bit and a [seq] stamp in every record, 5.92 with the
   head in a list cell of its own). Minor words per operation are what
   is left of the protocol's own allocations (a 2-word block per
   acquisition and per held child of a swap, a 3-word [Node] for each
   published or beheaded list), so a per-acquisition closure, a
   per-insert probe predicate, an option per probed node, a boxed list
   head or a record rebuilt per release cannot creep back into the hot
   paths unnoticed (10.1 words per insert and 58.6 per extract_min
   measured; 22.4 and 219.1 with a fresh 5-word record per lock
   transition, 20.1 and 184.9 with the 4-word [{list; locked; seq}]
   record). The insert probes draw from the calling domain's
   [Runtime.Real.rand_int] stream, restarted before the fill so that
   every run prints the same figures. *)
let keys_for_budget () =
  let rng = Prng.create 7L in
  Array.init (1 lsl 12) (fun _ -> Prng.int rng 1_000_000)

let allocation_budget () =
  let keys = keys_for_budget () in
  let n = Array.length keys in
  let q = K.create () in
  Runtime.Real.reseed_self 7L;
  let w0 = Gc.minor_words () in
  Array.iter (K.insert q) keys;
  let w1 = Gc.minor_words () in
  let extracted = ref 0 in
  while K.extract_min q <> None do
    incr extracted
  done;
  let w2 = Gc.minor_words () in
  let per_insert = (w1 -. w0) /. float_of_int n
  and per_extract = (w2 -. w1) /. float_of_int n in
  Printf.printf "words per op: insert %.1f, extract_min %.1f\n" per_insert
    per_extract;
  check_int "drained every key" n !extracted;
  check "insert <= 10.5 words" true (per_insert <= 10.5);
  check "extract_min <= 59 words" true (per_extract <= 59.)

let words_per_element () =
  let keys = keys_for_budget () in
  let q = K.create () in
  Runtime.Real.reseed_self 7L;
  Array.iter (K.insert q) keys;
  let per_elem =
    float_of_int (Obj.reachable_words (Obj.repr q))
    /. float_of_int (Array.length keys)
  in
  Printf.printf "reachable words per element: %.2f\n" per_elem;
  check_int "size" (Array.length keys) (K.size q);
  check "<= 4.6 words per element" true (per_elem <= 4.6)

let () =
  Alcotest.run "mound_lock"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          Alcotest.test_case "heapsort 20k" `Quick heapsort;
          Alcotest.test_case "empty behaviour" `Quick empty_behaviour;
        ] );
      ( "locking discipline",
        [
          Alcotest.test_case "locks released after ops" `Quick
            locks_released_after_each_op;
          Alcotest.test_case "extract_many then refill" `Quick
            extract_many_then_refill;
          Alcotest.test_case "insert_many roundtrip" `Quick
            insert_many_roundtrip;
          Alcotest.test_case "mirrors lock-free results" `Quick
            mirrors_lf_results;
          Alcotest.test_case "an unchanged release re-installs the record"
            `Quick unchanged_release_reinstalls;
          Alcotest.test_case "each tenure installs its own block" `Quick
            tenures_install_distinct_blocks;
          Alcotest.test_case "gave_up and missed are distinct" `Quick
            sentinels_distinct;
          Alcotest.test_case "allocation budget" `Quick allocation_budget;
          Alcotest.test_case "words per element" `Quick words_per_element;
        ] );
    ]
