(* Tests for the ablation experiments and the k-CSS insert variant. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the k-CSS insert variant must behave exactly like insert --- *)

module L = Mound.Lf_int

let kcss_sequential_equivalence () =
  let q = L.create () in
  let rng = Prng.create 81L in
  let input = Array.init 5_000 (fun _ -> Prng.int rng 1_000_000) in
  Array.iteri
    (fun i v -> if i land 1 = 0 then L.insert q v else L.insert_kcss q v)
    input;
  check "invariant" true (L.check q);
  check_int "size" 5_000 (L.size q);
  let rec drain acc =
    match L.extract_min q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check "sorted" true (drain [] = List.sort compare (Array.to_list input))

let kcss_concurrent_conservation () =
  let module LS = Mound.Lf.Make (Sim.Runtime) (Mound.Int_ord) in
  List.iter
    (fun seed ->
      let q = LS.create () in
      let per = 80 in
      let got = Array.make 4 0 in
      let body tid =
        for i = 0 to per - 1 do
          LS.insert_kcss q ((tid * per) + i);
          if i land 1 = 0 then
            match LS.extract_min q with
            | Some _ -> got.(tid) <- got.(tid) + 1
            | None -> ()
        done
      in
      ignore (Sim.Sched.run ~seed (Array.make 4 body));
      check "invariant" true (LS.check q);
      check_int "conservation" (4 * per)
        (Array.fold_left ( + ) 0 got + LS.size q))
    [ 3L; 4L; 5L; 6L ]

let kcss_costs_more () =
  let points = Harness.Ablation.kcss_vs_dcss ~ops_per_thread:256 () in
  match points with
  | [ dcss; kcss ] ->
      check "kcss issues more CAS" true (kcss.cas > 2 * dcss.cas);
      check "kcss slower" true (kcss.throughput < dcss.throughput)
  | _ -> Alcotest.fail "expected two variants"

(* --- threshold sweep --- *)

let threshold_insensitive () =
  (* the paper: "changing this value did not affect performance" — allow a
     2x band across thresholds 2..32 *)
  let points =
    Harness.Ablation.threshold_sweep ~ops_per_thread:512
      ~thresholds:[ 2; 8; 32 ] ()
  in
  let tps = List.map (fun (p : Harness.Ablation.threshold_point) -> p.insert_throughput) points in
  let mn = List.fold_left min infinity tps
  and mx = List.fold_left max 0. tps in
  check "within 2x band" true (mx < 2. *. mn);
  (* larger thresholds may probe longer before growing: depth must be
     non-increasing in threshold *)
  let depths = List.map (fun (p : Harness.Ablation.threshold_point) -> p.final_depth) points in
  check "depth non-increasing" true (List.sort (fun a b -> compare b a) depths = depths)

(* --- extract_approx quality --- *)

let approx_quality_sane () =
  let stats =
    Harness.Ablation.approx_quality ~n:2048 ~samples:512 ~max_levels:[ 0; 2 ] ()
  in
  match stats with
  | [ level0; level2 ] ->
      check "max_level 0 is exact" true (level0.exact_fraction = 1.0);
      check "max_level 0 rank 0" true (level0.max_rank = 0);
      check "level 2 mostly near-minimal" true (level2.mean_rank < 50.);
      check "level 2 bounded by shallow subtree count" true
        (level2.exact_fraction > 0.05)
  | _ -> Alcotest.fail "expected two levels"

(* --- synchronization cost accounting --- *)

let primitive_costs_shape () =
  let rows = Harness.Ablation.primitive_costs () in
  let cas = List.assoc "cas" rows
  and dcas = List.assoc "dcas" rows
  and dcss = List.assoc "dcss" rows in
  check_int "plain cas is one CAS" 1 (snd cas);
  (* the paper's point: a software DCAS costs several hardware CASes *)
  check "dcas >= 5 CAS" true (snd dcas >= 5);
  (* the exact HFP access sequence: leg ordering and descriptor layout
     must not add or drop a shared access *)
  let reads_cas = Alcotest.(pair int int) in
  Alcotest.check reads_cas "cas (reads, CAS)" (2, 1) cas;
  Alcotest.check reads_cas "dcas (reads, CAS)" (10, 7) dcas;
  Alcotest.check reads_cas "dcss (reads, CAS)" (10, 7) dcss;
  check "dcss = dcas footprint (implemented via dcas)" true (dcss = dcas)

let sync_costs_shape () =
  let rows = Harness.Ablation.sync_costs ~n:1024 ~ops:128 () in
  let find s o =
    List.find
      (fun (r : Harness.Ablation.cost_row) ->
        r.structure = s && r.operation = o)
      rows
  in
  let lf_ins = find "Mound (LF)" "insert"
  and lf_ext = find "Mound (LF)" "extractmin"
  and lk_ext = find "Mound (Lock)" "extractmin"
  and hunt_ins = find "Hunt Heap (Lock)" "insert" in
  (* §IV: lock-free moundify costs ~5J CAS vs locking 2J+1 *)
  check "lf extract needs ~2-3x the CAS of locking" true
    (lf_ext.cas_per_op > 2. *. lk_ext.cas_per_op);
  (* insert is cheap: one DCSS (~7 CAS) regardless of size *)
  check "lf insert ~one dcss" true
    (lf_ins.cas_per_op >= 5. && lf_ins.cas_per_op <= 12.);
  (* the Hunt heap's O(log n) trickle-up locks on the path *)
  check "hunt insert locks a path" true (hunt_ins.cas_per_op > 3.);
  (* The mounds' exact protocol footprint: total reads, writes and CAS
     over the 128 operations. A refactor of the mound operations that
     claims the same protocol must leave these unchanged. *)
  let totals (r : Harness.Ablation.cost_row) =
    let total x = int_of_float (x *. 128.) in
    (total r.reads_per_op, total r.writes_per_op, total r.cas_per_op)
  in
  List.iter
    (fun (s, o, expected) ->
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s %s (reads, writes, CAS)" s o)
        expected (totals (find s o)))
    [
      ("Mound (Lock)", "insert", (1696, 255, 255));
      ("Mound (Lock)", "extractmin", (4192, 2096, 1440));
      ("Mound (LF)", "insert", (2713, 0, 890));
      ("Mound (LF)", "extractmin", (9328, 0, 3952));
    ]

let () =
  Alcotest.run "ablation"
    [
      ( "kcss insert",
        [
          Alcotest.test_case "sequential equivalence" `Quick
            kcss_sequential_equivalence;
          Alcotest.test_case "concurrent conservation" `Quick
            kcss_concurrent_conservation;
          Alcotest.test_case "costs more than dcss" `Quick kcss_costs_more;
        ] );
      ( "threshold",
        [ Alcotest.test_case "insensitive" `Quick threshold_insensitive ] );
      ( "approx quality",
        [ Alcotest.test_case "sane" `Quick approx_quality_sane ] );
      ( "sync costs",
        [
          Alcotest.test_case "primitives" `Quick primitive_costs_shape;
          Alcotest.test_case "structures" `Quick sync_costs_shape;
        ] );
    ]
