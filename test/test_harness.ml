(* Tests for the experiment harness: workloads, barriers, experiment
   drivers and the table/figure generators at reduced scale. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- workload generators --- *)

let keys_orders () =
  let inc = Harness.Workload.keys ~order:Increasing ~n:100 ~seed:1L in
  check "increasing" true (inc = Array.init 100 Fun.id);
  let dec = Harness.Workload.keys ~order:Decreasing ~n:100 ~seed:1L in
  check "decreasing" true (dec = Array.init 100 (fun i -> 99 - i));
  let r1 = Harness.Workload.keys ~order:Random_order ~n:100 ~seed:1L in
  let r2 = Harness.Workload.keys ~order:Random_order ~n:100 ~seed:1L in
  check "random deterministic" true (r1 = r2);
  let r3 = Harness.Workload.keys ~order:Random_order ~n:100 ~seed:2L in
  check "seed sensitive" true (r1 <> r3);
  check "in range" true
    (Array.for_all (fun v -> v >= 0 && v < Harness.Workload.key_range) r1)

let panel_names_roundtrip () =
  List.iter
    (fun p ->
      check "roundtrip" true
        (Harness.Workload.panel_of_string (Harness.Workload.panel_name p)
        = Some p))
    Harness.Workload.[ Insert; Extract; Mixed; Extract_many ]

let run_thread_counts_ops () =
  let module S = Mound.Seq_int in
  let q = S.create ~seed:9L () in
  let pq = Harness.Pq.of_mound (module S) q in
  let rng = Prng.create 1L in
  let rand b = Prng.int rng b in
  let n = Harness.Workload.run_thread ~panel:Insert ~q:pq ~rand ~ops:50 in
  check_int "insert count" 50 n;
  check_int "size after" 50 (S.size q);
  let n = Harness.Workload.run_thread ~panel:Extract ~q:pq ~rand ~ops:30 in
  check_int "extract count" 30 n;
  check_int "size after extracts" 20 (S.size q);
  let n = Harness.Workload.run_thread ~panel:Extract_many ~q:pq ~rand ~ops:0 in
  check_int "extract_many drains the rest" 20 n;
  check "empty" true (S.is_empty q)

(* --- the handle contract --- *)

(* Over every simulator maker, the MultiQueue included: names are
   distinct (drivers and [Bench_json.median_of] key series on them), an
   unsorted batch is accepted, the [of_basic] degradations hold, and the
   mound handles carry counters and honour the probe depth. *)
let handle_contract () =
  let open Harness.Pq.On_sim in
  let mq = multiqueue ~domains:2 () in
  let mounds = [ mound_lf; mound_lock; mq ] in
  let makers = mq :: extended_set in
  let names = List.map (fun (m : Harness.Pq.maker) -> m.name) makers in
  check_int "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names));
  let drain (q : Harness.Pq.t) =
    let rec go acc =
      match q.extract_min () with None -> List.rev acc | Some v -> go (v :: acc)
    in
    go []
  in
  List.iter
    (fun (m : Harness.Pq.maker) ->
      let q = m.make ~capacity:64 in
      q.insert_many [ 5; 1; 4; 2; 3 ];
      check (m.name ^ " invariant") true (q.check ());
      check (m.name ^ " drains sorted") true (drain q = [ 1; 2; 3; 4; 5 ]);
      if List.memq m mounds then
        check (m.name ^ " counters") true (Option.is_some (q.ops ()))
      else begin
        List.iter q.insert [ 2; 1; 3 ];
        check (m.name ^ " extract_many singleton") true
          (q.extract_many () = [ 1 ]);
        check (m.name ^ " insert_until ignores deadline") true
          (q.insert_until ~deadline:0 5 = Mound.Intf.Ok ());
        check (m.name ^ " extract_min_until ignores deadline") true
          (q.extract_min_until ~deadline:0 = Mound.Intf.Ok (Some 2));
        check (m.name ^ " no counters") true (Option.is_none (q.ops ()))
      end)
    makers;
  List.iter
    (fun (m : Harness.Pq.maker) ->
      let q = m.make ~capacity:64 in
      List.iter q.insert (List.init 64 Fun.id);
      for want = 0 to 15 do
        check (m.name ^ " depth-0 probe is exact") true
          (q.extract_approx ~max_level:0 () = Some want)
      done)
    [ mound_lf; mound_lock ]

(* --- barrier --- *)

let barrier_releases_all () =
  let b = Harness.Barrier.create 4 in
  let hit = Atomic.make 0 in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Harness.Barrier.wait b;
            Atomic.incr hit;
            (* reusable: second round *)
            Harness.Barrier.wait b;
            Atomic.incr hit))
  in
  Array.iter Domain.join doms;
  check_int "all passed twice" 8 (Atomic.get hit)

(* --- sim experiment driver --- *)

let sim_cell_insert () =
  let p =
    Harness.Sim_exp.run_cell ~profile:Sim.Profile.uniform ~panel:Insert
      ~threads:3 ~ops_per_thread:100 ~init_size:0 Harness.Pq.On_sim.mound_lock
  in
  check_int "all ops counted" 300 p.ops;
  check "positive throughput" true (p.throughput > 0.);
  check "positive span" true (p.span_cycles > 0)

let sim_cell_extract_drains () =
  let p =
    Harness.Sim_exp.run_cell ~profile:Sim.Profile.uniform ~panel:Extract
      ~threads:2 ~ops_per_thread:200 ~init_size:0 Harness.Pq.On_sim.skiplist
  in
  (* pre-populated with threads*ops elements; all extracts succeed *)
  check_int "all extracts succeeded" 400 p.ops

let sim_cell_extract_many_conserves () =
  let p =
    Harness.Sim_exp.run_cell ~profile:Sim.Profile.uniform ~panel:Extract_many
      ~threads:4 ~ops_per_thread:0 ~init_size:500 Harness.Pq.On_sim.mound_lf
  in
  check_int "every element extracted exactly once" 500 p.ops

let sim_series_shape () =
  let s =
    Harness.Sim_exp.run_series ~profile:Sim.Profile.uniform ~panel:Mixed
      ~thread_counts:[ 1; 2 ] ~ops_per_thread:50 ~init_size:100
      Harness.Pq.On_sim.coarse
  in
  check "name" true (s.structure = "Coarse Heap");
  check_int "two points" 2 (List.length s.points)

let sim_determinism () =
  let run () =
    Harness.Sim_exp.run_cell ~profile:Sim.Profile.x86 ~seed:5L ~panel:Mixed
      ~threads:4 ~ops_per_thread:100 ~init_size:200 Harness.Pq.On_sim.mound_lf
  in
  let a = run () and b = run () in
  check "same span" true (a.span_cycles = b.span_cycles);
  check "same ops" true (a.ops = b.ops)

(* --- real experiment driver --- *)

let real_cell_smoke () =
  let c =
    Harness.Real_exp.run_overload_cell ~warmup:1 ~trials:3 ~scenario:Bursty
      ~threads:2 ~ops_per_thread:500 ~capacity:64
      Harness.Pq.On_real.mound_lock
  in
  check_int "measured trials" 3 (List.length c.trials);
  List.iter
    (fun (t : Harness.Real_exp.trial) ->
      check_int "ops counted" 1000 t.ops;
      check_int "thread points" 2 (List.length t.thread_points);
      check "throughput positive" true (t.throughput > 0.);
      check "skew non-negative" true (t.skew_s >= 0.);
      List.iter
        (fun (p : Harness.Real_exp.thread_point) ->
          (* per-domain stamps land inside the trial's timed window *)
          check "start after origin" true (p.start_s >= 0.);
          check "stop after start" true (p.stop_s >= p.start_s))
        t.thread_points)
    c.trials;
  check "median positive" true (c.summary.median > 0.);
  check "min <= median" true (c.summary.tp_min <= c.summary.median);
  check "median <= max" true (c.summary.median <= c.summary.tp_max)

(* The shared timing protocol behind the overload and rank-error
   trials: per-domain counts land in their own thread point, and the
   trial's totals are derived from those points. *)
let timed_trial_protocol () =
  let t = Harness.Real_exp.timed_trial ~threads:2 (fun tid -> (tid + 1) * 10) in
  check_int "ops summed over domains" 30 t.ops;
  check "one point per domain, in tid order" true
    (List.map (fun (p : Harness.Real_exp.thread_point) -> (p.tid, p.ops))
       t.thread_points
    = [ (0, 10); (1, 20) ]);
  let starts =
    List.map (fun (p : Harness.Real_exp.thread_point) -> p.start_s)
      t.thread_points
  in
  List.iter
    (fun (p : Harness.Real_exp.thread_point) ->
      check "start after origin" true (p.start_s >= 0.);
      check "stop after start" true (p.stop_s >= p.start_s);
      check "stop inside the trial" true (p.stop_s <= t.seconds))
    t.thread_points;
  let skew =
    List.fold_left max neg_infinity starts
    -. List.fold_left min infinity starts
  in
  check "skew is the start spread" true (Float.abs (t.skew_s -. skew) < 1e-9);
  check "throughput is ops over seconds" true
    (t.seconds > 0.
    && Float.abs (t.throughput -. (30. /. t.seconds)) <= 1e-9 *. t.throughput)

(* --- tables at reduced scale --- *)

let table1_shape () =
  let rows = Harness.Tables.table1 ~n:(1 lsl 12) () in
  check_int "two orders" 2 (List.length rows);
  List.iter
    (fun (r : Harness.Tables.row) ->
      check "all elements accounted" true
        (Mound.Stats.total_elements r.stats = 1 lsl 12);
      (* increasing order yields strictly more levels than random *)
      check "plausible depth" true (r.stats.depth >= 10 && r.stats.depth <= 16))
    rows;
  let inc = (List.nth rows 0 : Harness.Tables.row) in
  let rnd = List.nth rows 1 in
  check "increasing deeper or equal" true (inc.stats.depth >= rnd.stats.depth)

let table2_shape () =
  let rows = Harness.Tables.table2 ~n:(1 lsl 12) () in
  check_int "four rows" 4 (List.length rows);
  List.iter
    (fun (r : Harness.Tables.row) ->
      let total = Mound.Stats.total_elements r.stats in
      check "some elements removed" true (total < 1 lsl 12 && total > 0))
    rows

let table3_shape () =
  let rows = Harness.Tables.table3 ~ops:(1 lsl 12) () in
  check_int "three sizes" 3 (List.length rows)

let table4_shape () =
  let stats = Harness.Tables.table4 ~n:(1 lsl 14) () in
  check_int "all elements" (1 lsl 14) (Mound.Stats.total_elements stats);
  (* the paper's key observation: average stored value increases with
     depth (shallow lists hold the small elements) *)
  let levels = Array.to_list stats.levels in
  let nonempty =
    List.filter (fun (l : Mound.Stats.level) -> l.elements > 100) levels
  in
  let avgs = List.filter_map Mound.Stats.avg_value nonempty in
  let rec mostly_increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b *. 1.5 && mostly_increasing rest
  in
  check "avg value grows with depth" true (mostly_increasing avgs);
  (* and lists near the top are much longer than near the leaves *)
  check "top lists long" true
    (Mound.Stats.avg_list_len stats.levels.(0) > 3.);
  let max_len =
    Array.fold_left
      (fun m lv -> max m (Mound.Stats.avg_list_len lv))
      0. stats.levels
  in
  let last = stats.levels.(stats.depth - 1) in
  check "lists decay toward leaves" true
    (max_len > 2. *. Mound.Stats.avg_list_len last)

(* --- fig2 quick end-to-end --- *)

let fig2_panel_smoke () =
  let scale =
    {
      Harness.Fig2.ops_per_thread = 128;
      mixed_init = 128;
      many_init = 256;
      threads_niagara = [ 1; 2 ];
      threads_x86 = [ 1; 2 ];
    }
  in
  let series =
    Harness.Fig2.run ~scale ~profile:Sim.Profile.x86 ~panel:Insert ()
  in
  check_int "four structures" 4 (List.length series);
  List.iter
    (fun (s : Harness.Sim_exp.series) ->
      check_int "two points" 2 (List.length s.points);
      List.iter
        (fun (p : Harness.Sim_exp.point) ->
          check "positive throughput" true (p.throughput > 0.))
        s.points)
    series;
  (* printing does not raise and mentions every structure *)
  let out =
    Format.asprintf "%a"
      (fun ppf () ->
        Harness.Fig2.print_panel ppf ~profile:Sim.Profile.x86 ~panel:Insert
          series)
      ()
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name -> check (name ^ " in output") true (contains out name))
    [ "Mound (Lock)"; "Mound (LF)"; "Hunt Heap (Lock)"; "Skip List (QC)" ]

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "key orders" `Quick keys_orders;
          Alcotest.test_case "panel names" `Quick panel_names_roundtrip;
          Alcotest.test_case "run_thread op counts" `Quick
            run_thread_counts_ops;
        ] );
      ( "handle",
        [
          Alcotest.test_case "contract over every maker" `Quick
            handle_contract;
        ] );
      ("barrier", [ Alcotest.test_case "releases all" `Quick barrier_releases_all ]);
      ( "sim driver",
        [
          Alcotest.test_case "insert cell" `Quick sim_cell_insert;
          Alcotest.test_case "extract cell drains" `Quick
            sim_cell_extract_drains;
          Alcotest.test_case "extract_many conserves" `Quick
            sim_cell_extract_many_conserves;
          Alcotest.test_case "series shape" `Quick sim_series_shape;
          Alcotest.test_case "deterministic" `Quick sim_determinism;
        ] );
      ( "real driver",
        [
          Alcotest.test_case "smoke" `Quick real_cell_smoke;
          Alcotest.test_case "timed_trial protocol" `Quick
            timed_trial_protocol;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Quick table1_shape;
          Alcotest.test_case "table2" `Quick table2_shape;
          Alcotest.test_case "table3" `Quick table3_shape;
          Alcotest.test_case "table4" `Quick table4_shape;
        ] );
      ("fig2", [ Alcotest.test_case "panel smoke" `Quick fig2_panel_smoke ]);
    ]
