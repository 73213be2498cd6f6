(* Linearizability of concurrent histories, recorded deterministically in
   the simulator and verified with the Wing-Gong checker in [Lin].

   Every maker that claims linearizability (the mounds, the coarse heap
   and the STM heap) must produce linearizable histories under every
   schedule. The others (the quiescently consistent skip lists and the
   Hunt heap, whose in-limbo bottom value escapes linearizability) are
   only reported; the checker itself is pinned on hand-built histories. *)

let check = Alcotest.(check bool)

(* ---- checker unit tests on hand-built histories ---- *)

let e inv resp op = { Harness.Lin.inv; resp; op }

let checker_accepts_sequential () =
  check "insert/extract" true
    (Harness.Lin.check [ e 0 1 (Ins 5); e 2 3 (Ext (Some 5)); e 4 5 (Ext None) ]);
  check "ordering respected" true
    (Harness.Lin.check [ e 0 1 (Ins 5); e 2 3 (Ins 3); e 4 5 (Ext (Some 3)) ])

let checker_rejects_wrong_min () =
  (* both inserts strictly precede the extract, which returns the larger *)
  check "wrong min rejected" false
    (Harness.Lin.check [ e 0 1 (Ins 5); e 2 3 (Ins 3); e 4 5 (Ext (Some 5)) ]);
  (* extract of a value never inserted *)
  check "phantom rejected" false (Harness.Lin.check [ e 0 1 (Ins 5); e 2 3 (Ext (Some 7)) ]);
  (* empty-extract while an element is definitely present *)
  check "false empty rejected" false
    (Harness.Lin.check [ e 0 1 (Ins 5); e 2 3 (Ext None) ])

let checker_uses_overlap () =
  (* the extract overlaps the insert, so both Some 5 and None linearize *)
  check "overlap Some" true (Harness.Lin.check [ e 0 10 (Ins 5); e 1 2 (Ext (Some 5)) ]);
  check "overlap None" true (Harness.Lin.check [ e 0 10 (Ins 5); e 1 2 (Ext None) ]);
  (* but a non-overlapping later extract must see the insert *)
  check "after insert" false (Harness.Lin.check [ e 0 1 (Ins 5); e 2 3 (Ext None) ])

let checker_batched_insert () =
  (* an Ins_many lands its whole multiset at one linearization point *)
  check "batch then drain" true
    (Harness.Lin.check
       [
         e 0 1 (Ins_many [ 1; 4 ]);
         e 2 3 (Ext (Some 1));
         e 4 5 (Ext (Some 4));
         e 6 7 (Ext None);
       ]);
  (* a later extract must see the batch's minimum, not a larger member *)
  check "partial batch view rejected" false
    (Harness.Lin.check [ e 0 1 (Ins_many [ 3; 5 ]); e 2 3 (Ext (Some 5)) ]);
  (* an extract overlapping the batch may linearize before it *)
  check "overlap None accepted" true
    (Harness.Lin.check [ e 0 10 (Ins_many [ 3; 5 ]); e 1 2 (Ext None) ]);
  (* but not a non-overlapping one *)
  check "after batch must see it" false
    (Harness.Lin.check [ e 0 1 (Ins_many [ 3; 5 ]); e 2 3 (Ext None) ]);
  (* duplicates within a batch are distinct multiset members *)
  check "batch duplicates" true
    (Harness.Lin.check
       [ e 0 1 (Ins_many [ 2; 2 ]); e 2 3 (Ext (Some 2)); e 4 5 (Ext (Some 2)) ])

let checker_initial_state () =
  check "init respected" true
    (Harness.Lin.check ~init:[ 4 ] [ e 0 1 (Ext (Some 4)) ]);
  check "init min first" false
    (Harness.Lin.check ~init:[ 4; 9 ] [ e 0 1 (Ext (Some 9)) ])

(* ---- recorded histories from the simulator ---- *)

(* Build per-thread scripts deterministically from a seed. *)
let scripts ~threads ~ops ~seed =
  let rng = Prng.create seed in
  List.init threads (fun t ->
      List.init ops (fun i ->
          if Prng.int rng 2 = 0 then `Insert ((t * 1000) + i + Prng.int rng 50)
          else `Extract))

let record_history (maker : Harness.Pq.maker) ~seed =
  let q = maker.make ~capacity:4096 in
  let scr = scripts ~threads:4 ~ops:7 ~seed in
  let pairs = List.map (fun s -> Harness.Lin.recorder q s) scr in
  let bodies = Array.of_list (List.map (fun (b, _) -> fun _ -> b ()) pairs) in
  ignore (Sim.Sched.run ~seed bodies);
  List.concat_map (fun (_, collect) -> collect ()) pairs

let seeds = List.init 25 (fun i -> Int64.of_int (2000 + (13 * i)))

let assert_linearizable (maker : Harness.Pq.maker) () =
  List.iter
    (fun seed ->
      let history = record_history maker ~seed in
      check
        (Printf.sprintf "%s linearizable (seed %Ld)" maker.name seed)
        true (Harness.Lin.check history))
    seeds

(* Batched-insert histories against the sequential oracle. [insert_many]
   splices one node prefix per CAS/lock pair, so it is atomic as a whole
   only when no concurrent extract can observe the gap between splices;
   these scripts keep the atomic [Ins_many] spec sound by construction —
   the only extracting thread runs its extracts after its own batch, and
   every other thread just inserts. *)
let record_batched_history (maker : Harness.Pq.maker) ~seed =
  let q = maker.make ~capacity:4096 in
  let rng = Prng.create seed in
  let batch n lo = List.sort compare (List.init n (fun _ -> lo + Prng.int rng 40)) in
  let scr =
    [
      [ `Insert_many (batch 4 0); `Extract; `Extract; `Extract_many ];
      [ `Insert (Prng.int rng 50); `Insert_many (batch 3 10) ];
      [ `Insert_many (batch 2 20); `Insert (Prng.int rng 50) ];
    ]
  in
  let pairs = List.map (fun s -> Harness.Lin.recorder q s) scr in
  let bodies = Array.of_list (List.map (fun (b, _) -> fun _ -> b ()) pairs) in
  ignore (Sim.Sched.run ~seed bodies);
  List.concat_map (fun (_, collect) -> collect ()) pairs

let assert_batched_linearizable (maker : Harness.Pq.maker) () =
  List.iter
    (fun seed ->
      let history = record_batched_history maker ~seed in
      check
        (Printf.sprintf "%s batched linearizable (seed %Ld)" maker.name seed)
        true (Harness.Lin.check history))
    seeds

let report_only (maker : Harness.Pq.maker) () =
  (* quiescently consistent structures: count how many histories happen
     to be linearizable, and require only conservation-style sanity via
     the checker not crashing *)
  let lin = ref 0 in
  List.iter
    (fun seed ->
      let history = record_history maker ~seed in
      if Harness.Lin.check history then incr lin)
    seeds;
  Printf.printf "  [%s] %d/%d recorded histories were linearizable\n%!"
    maker.name !lin (List.length seeds);
  check "checker ran" true (!lin >= 0)

let tampered_history_caught () =
  (* take a real linearizable history and corrupt one extract result *)
  let history = record_history Harness.Pq.On_sim.mound_lf ~seed:9L in
  check "original ok" true (Harness.Lin.check history);
  let corrupted =
    List.map
      (fun (ev : Harness.Lin.event) ->
        match ev.op with
        | Ext (Some v) -> { ev with op = Harness.Lin.Ext (Some (v + 1_000_000)) }
        | _ -> ev)
      history
  in
  let had_extract =
    List.exists
      (fun (ev : Harness.Lin.event) ->
        match ev.op with Ext (Some _) -> true | _ -> false)
      history
  in
  if had_extract then check "corruption caught" false (Harness.Lin.check corrupted)

(* ---- the checker's own power: a deliberately broken structure ---- *)

(* [Racy_pq.make_racy] updates one shared cell with a plain get-then-set,
   so interleaved operations lose updates; [make_cas] is the honest
   control with the identical footprint. Recording both under the plain
   simulator exercises Lin end to end: it must reject the former on some
   schedule and accept the latter on every schedule. *)

let racy_maker : Harness.Pq.maker =
  {
    name = "Racy Toy PQ (get-then-set)";
    linearizable = false;
    make = (fun ~capacity:_ -> Racy_pq.make_racy ());
  }

let cas_maker : Harness.Pq.maker =
  {
    name = "Toy PQ (CAS loop)";
    linearizable = true;
    make = (fun ~capacity:_ -> Racy_pq.make_cas ());
  }

let lin_rejects_racy_toy () =
  let violations = ref 0 in
  List.iter
    (fun seed ->
      let history = record_history racy_maker ~seed in
      if not (Harness.Lin.check history) then incr violations)
    seeds;
  Printf.printf "  [racy toy] %d/%d recorded histories non-linearizable\n%!"
    !violations (List.length seeds);
  check "lost updates detected on at least one schedule" true (!violations > 0)

let lin_accepts_cas_control () =
  List.iter
    (fun seed ->
      let history = record_history cas_maker ~seed in
      check
        (Printf.sprintf "cas toy linearizable (seed %Ld)" seed)
        true (Harness.Lin.check history))
    seeds

(* property: histories produced by genuinely sequential executions are
   always linearizable *)
let prop_sequential_always_ok =
  QCheck.Test.make ~name:"sequential histories always linearizable" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (pair bool (int_bound 100)))
    (fun script ->
      let model = ref [] in
      let t = ref 0 in
      let history =
        List.map
          (fun (is_insert, v) ->
            let inv = !t in
            let op =
              if is_insert then begin
                model := List.sort compare (v :: !model);
                Harness.Lin.Ins v
              end
              else
                match !model with
                | [] -> Harness.Lin.Ext None
                | m :: rest ->
                    model := rest;
                    Harness.Lin.Ext (Some m)
            in
            t := !t + 2;
            { Harness.Lin.inv; resp = inv + 1; op })
          script
      in
      Harness.Lin.check history)

(* property: making every operation's interval span the whole history can
   only add legal linearizations, never remove them *)
let prop_widening_monotone =
  QCheck.Test.make ~name:"widening intervals preserves linearizability"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 10) (pair bool (int_bound 50)))
    (fun script ->
      let model = ref [] in
      let t = ref 0 in
      let history =
        List.map
          (fun (is_insert, v) ->
            let inv = !t in
            let op =
              if is_insert then begin
                model := List.sort compare (v :: !model);
                Harness.Lin.Ins v
              end
              else
                match !model with
                | [] -> Harness.Lin.Ext None
                | m :: rest ->
                    model := rest;
                    Harness.Lin.Ext (Some m)
            in
            t := !t + 2;
            { Harness.Lin.inv; resp = inv + 1; op })
          script
      in
      let widened =
        List.map (fun e -> { e with Harness.Lin.inv = 0; resp = 1000 }) history
      in
      (not (Harness.Lin.check history)) || Harness.Lin.check widened)

let () =
  Alcotest.run "linearizability"
    [
      ( "checker",
        [
          Alcotest.test_case "accepts sequential" `Quick
            checker_accepts_sequential;
          Alcotest.test_case "rejects wrong min" `Quick
            checker_rejects_wrong_min;
          Alcotest.test_case "uses overlap" `Quick checker_uses_overlap;
          Alcotest.test_case "batched insert" `Quick checker_batched_insert;
          Alcotest.test_case "initial state" `Quick checker_initial_state;
          Alcotest.test_case "tampered history caught" `Quick
            tampered_history_caught;
          QCheck_alcotest.to_alcotest prop_sequential_always_ok;
          QCheck_alcotest.to_alcotest prop_widening_monotone;
        ] );
      ( "racy toy",
        [
          Alcotest.test_case "get-then-set rejected" `Quick
            lin_rejects_racy_toy;
          Alcotest.test_case "cas control accepted" `Quick
            lin_accepts_cas_control;
        ] );
      ( "structures (25 seeded schedules each)",
        List.map
          (fun (m : Harness.Pq.maker) ->
            if m.linearizable then
              Alcotest.test_case m.name `Quick (assert_linearizable m)
            else
              Alcotest.test_case (m.name ^ " (report)") `Quick (report_only m))
          Harness.Pq.On_sim.extended_set
        @ List.map
            (fun (m : Harness.Pq.maker) ->
              Alcotest.test_case (m.name ^ " batched") `Quick
                (assert_batched_linearizable m))
            Harness.Pq.On_sim.[ mound_lf; mound_lock ] );
    ]
