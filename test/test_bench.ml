(* Smoke coverage for the wall-clock artifact pipeline: a tiny in-test
   overload run must produce a schema-valid [Bench_json] document that
   survives a serialize/parse round trip, malformed documents must be
   rejected, every committed artifact must decode with its schema and
   re-encode to its own bytes, and a fresh measurement must not fall
   below half the committed overload baseline medians in
   bench/baseline/, compared at matching thread counts only (the
   baseline sweep may be wider or narrower than this machine's; the
   0.5x factor absorbs shared-CI noise and the committed artifacts
   themselves show the true before/after).

   The default run keeps the measured work tiny so `dune runtest` stays
   fast; set BENCH_FULL=1 for the full ops count and the zipf
   scenario. *)

let check = Alcotest.(check bool)

let full = Sys.getenv_opt "BENCH_FULL" = Some "1"

let seed = 7L

(* cwd is _build/default/test under `dune runtest` but the project root
   under `dune exec test/test_bench.exe` *)
let locate rel =
  if Sys.file_exists (Filename.concat ".." rel) then Filename.concat ".." rel
  else rel

(* ops must match the baseline artifacts (recorded at 2^12): the timed
   window includes a fixed per-trial startup cost, so throughputs are
   only comparable at equal op counts; the full sweep matches the
   non-quick CLI default *)
let ops = if full then 1 lsl 15 else 1 lsl 12
let trials = 3
let warmup = 1

(* baseline comparisons need more warmup and more trials than the schema
   smoke runs: the first trials after process start run cold (page
   faults, allocator growth) and a 3-trial median is one hiccup away
   from an outlier *)
let cmp_warmup = 2
let cmp_trials = 5

(* Parameters must match the committed BENCH_overload_* artifacts: quick
   ops, capacity = ops/16. *)
let overload_scenarios : Harness.Real_exp.overload_scenario list =
  if full then [ Bursty; Overcap; Zipf_mix ] else [ Bursty; Overcap ]

let overload_capacity = max 64 (ops / 16)

(* 1-thread only: single-core CI makes multi-thread wall clock
   meaningless. domains:2 matches the committed baselines' recording
   sweep (the CLI floors max_t at 2), so the queue count — and hence the
   name "MultiQueue"'s meaning — is the same on both sides of the
   guard. *)
let overload_structures =
  [
    Harness.Pq.On_real.mound_lf;
    Harness.Pq.On_real.mound_lock;
    Harness.Pq.On_real.multiqueue ~domains:2 ();
  ]

let overload_doc ~warmup ~trials scenario =
  let series =
    List.map
      (Harness.Real_exp.run_overload_series ~seed ~warmup ~trials ~scenario
         ~thread_counts:[ 1 ] ~ops_per_thread:ops
         ~capacity:overload_capacity)
      overload_structures
  in
  Harness.Bench_json.(
    panel_codec.enc
      (of_panel
         ~panel:("overload_" ^ Harness.Real_exp.scenario_name scenario)
         ~seed ~warmup ~measured_trials:trials ~ops_per_thread:ops
         ~init_size:overload_capacity series))

let smoke_docs =
  lazy
    (List.map
       (fun s ->
         (Harness.Real_exp.scenario_name s, overload_doc ~warmup ~trials s))
       overload_scenarios)

let smoke_bench_validates () =
  List.iter
    (fun (tag, doc) ->
      match Harness.Bench_json.validate doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid bench document: %s" tag e)
    (Lazy.force smoke_docs)

let roundtrip_preserves () =
  List.iter
    (fun (tag, doc) ->
      let reparsed =
        Harness.Bench_json.parse (Harness.Bench_json.to_string doc)
      in
      (match Harness.Bench_json.validate reparsed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: reparsed document invalid: %s" tag e);
      List.iter
        (fun (m : Harness.Pq.maker) ->
          let name = m.name in
          let med j =
            Harness.Bench_json.(
              median_of (panel_codec.dec j) ~structure:name ~threads:1)
          in
          match (med doc, med reparsed) with
          | Some a, Some b ->
              (* floats survive the %.9g print/parse round trip within a
                 relative epsilon *)
              check
                (Printf.sprintf "%s/%s median round-trips" tag name)
                true
                (Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a))
          | _ -> Alcotest.failf "%s/%s: median missing" tag name)
        overload_structures)
    (Lazy.force smoke_docs)

let malformed_rejected () =
  (match Harness.Bench_json.parse "{ \"schema\": " with
  | exception Harness.Bench_json.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated document parsed");
  (match Harness.Bench_json.parse "{} trailing" with
  | exception Harness.Bench_json.Malformed _ -> ()
  | _ -> Alcotest.fail "trailing garbage parsed");
  (* a \u escape is four hex digits naming a scalar value, kept as UTF-8 *)
  (match Harness.Bench_json.parse {|"\uZZZZ"|} with
  | exception Harness.Bench_json.Malformed _ -> ()
  | _ -> Alcotest.fail "non-hex \\u escape parsed");
  (match Harness.Bench_json.parse {|"\ud800"|} with
  | exception Harness.Bench_json.Malformed _ -> ()
  | _ -> Alcotest.fail "lone surrogate parsed");
  check "\\u00e9 decodes to UTF-8" true
    (Harness.Bench_json.parse {|"\u00e9"|} = Harness.Bench_json.Str "é");
  check "surrogate pair decodes to one code point" true
    (Harness.Bench_json.parse {|"\ud83d\ude00"|}
    = Harness.Bench_json.Str "\u{1F600}");
  check "empty object rejected" true
    (Result.is_error (Harness.Bench_json.validate (Harness.Bench_json.Obj [])));
  let with_key_in doc k v =
    match doc with
    | Harness.Bench_json.Obj kvs ->
        Harness.Bench_json.Obj
          (List.map (fun ((k', _) as kv) -> if k' = k then (k, v) else kv) kvs)
    | _ -> assert false
  in
  let with_key = with_key_in (snd (List.hd (Lazy.force smoke_docs))) in
  check "wrong schema tag rejected" true
    (Result.is_error
       (Harness.Bench_json.validate
          (with_key "schema" (Harness.Bench_json.Str "other/9"))));
  (* a cell reporting fewer trials than declared *)
  check "missing trials rejected" true
    (Result.is_error
       (Harness.Bench_json.validate
          (with_key "measured_trials" (Harness.Bench_json.Num 99.))));
  (* typed decoding: a truncating validator accepted both *)
  let bursty =
    Harness.Bench_json.load
      (locate "bench/baseline/BENCH_overload_bursty.json")
  in
  check "non-integral measured_trials rejected" true
    (Result.is_error
       (Harness.Bench_json.validate
          (with_key_in bursty "measured_trials" (Harness.Bench_json.Num 5.5))));
  check "non-string panel rejected" true
    (Result.is_error
       (Harness.Bench_json.validate
          (with_key_in bursty "panel" (Harness.Bench_json.Num 3.))));
  (* the rank section: one row per cell, non-negative counts, mean <= max *)
  let rank_doc =
    Harness.Bench_json.(panel_codec.dec (load (locate "BENCH_rankerror.json")))
  in
  let with_rank f =
    Harness.Bench_json.panel_codec.enc
      { rank_doc with rank = Option.map f rank_doc.rank }
  in
  let with_stats f =
    with_rank
      (List.map (fun (r : Harness.Rank_exp.row) ->
           { r with stats = f r.stats }))
  in
  List.iter
    (fun (what, doc) ->
      check (what ^ " rejected") true
        (Result.is_error (Harness.Bench_json.validate doc)))
    [
      ("missing rank row", with_rank List.tl);
      ("duplicate rank row", with_rank (fun rs -> List.hd rs :: rs));
      ("negative rank count", with_stats (fun s -> { s with unmatched = -1 }));
      ( "mean rank error above max",
        with_stats (fun s ->
            { s with mean_error = float_of_int s.max_error +. 1. }) );
    ]

(* Every committed artifact validates, decodes with its schema and
   re-encodes to its own bytes: the descriptions cover each key, in
   order, and nothing is lost on the way through. *)
let committed_round_trip () =
  let round_trip (type a) rel validate (codec : a Harness.Bench_json.Codec.t)
      =
    let path = locate rel in
    let bytes = Harness.Bench_json.read_file path in
    let j = Harness.Bench_json.parse bytes in
    (match validate j with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s invalid: %s" path e);
    check (rel ^ " re-encodes to its own bytes") true
      (Harness.Bench_json.to_string (codec.enc (codec.dec j)) = bytes)
  in
  List.iter
    (fun rel ->
      round_trip rel Harness.Bench_json.validate
        Harness.Bench_json.panel_codec)
    [
      "bench/baseline/BENCH_overload_bursty.json";
      "bench/baseline/BENCH_overload_overcap.json";
      "bench/baseline/BENCH_overload_zipf.json";
      "BENCH_rankerror.json";
    ];
  round_trip "bench/baseline/MUTATION_matrix.json"
    Harness.Mutation_json.validate Harness.Mutation_json.codec;
  round_trip "bench/baseline/LINT_tree.json" Harness.Lint_json.validate
    Harness.Lint_json.codec

(* Fresh medians vs. the committed baseline. Half the baseline is a
   deliberate underbid: an actual hot-path regression (e.g.
   reintroducing per-retry allocation) costs well over 2x, while CI
   noise on a shared single core stays well under it. Throughput under
   admission control counts every disposal, rejections included. *)
let overload_not_regressed () =
  List.iter
    (fun scenario ->
      let stag = Harness.Real_exp.scenario_name scenario in
      let path =
        locate (Printf.sprintf "bench/baseline/BENCH_overload_%s.json" stag)
      in
      let baseline = Harness.Bench_json.load path in
      (match Harness.Bench_json.validate baseline with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: baseline invalid: %s" path e);
      let baseline = Harness.Bench_json.panel_codec.dec baseline in
      (* keyed to matching thread counts only: the baseline may carry a
         wider sweep (4/8-thread panels from a wide machine) than this
         run measures, and vice versa — compare exactly the counts
         present in both documents *)
      let medians () =
        let doc =
          Harness.Bench_json.panel_codec.dec
            (overload_doc ~warmup:cmp_warmup ~trials:cmp_trials scenario)
        in
        List.concat_map
          (fun (m : Harness.Pq.maker) ->
            let name = m.name in
            let common =
              Harness.Bench_json.thread_counts_of doc ~structure:name
              |> List.filter (fun t ->
                     List.mem t
                       (Harness.Bench_json.thread_counts_of baseline
                          ~structure:name))
            in
            if common = [] then
              Alcotest.failf "overload_%s/%s: no matching thread counts" stag
                name;
            List.map
              (fun t ->
                let fresh =
                  Harness.Bench_json.median_of doc ~structure:name ~threads:t
                and base =
                  Harness.Bench_json.median_of baseline ~structure:name
                    ~threads:t
                in
                match (fresh, base) with
                | Some f, Some b -> (Printf.sprintf "%s@%dt" name t, f, b)
                | _ ->
                    Alcotest.failf "overload_%s/%s@%dt: missing median" stag
                      name t)
              common)
          overload_structures
      in
      let below (_, f, b) = f < 0.5 *. b in
      let first = medians () in
      if List.exists below first then begin
        (* one re-measure before declaring a regression: a single
           descheduling blip on a shared core can sink a whole run *)
        let retry = medians () in
        List.iter2
          (fun ((name, f1, b) as m1) ((_, f2, _) as m2) ->
            if below m1 && below m2 then
              Alcotest.failf
                "overload_%s/%s: medians %.0f and %.0f ops/s below half of \
                 baseline %.0f"
                stag name f1 f2 b)
          first retry
      end)
    overload_scenarios

let () =
  Alcotest.run "bench"
    [
      ( "pipeline",
        [
          Alcotest.test_case "smoke bench validates" `Quick
            smoke_bench_validates;
          Alcotest.test_case "serialize/parse round trip" `Quick
            roundtrip_preserves;
          Alcotest.test_case "malformed rejected" `Quick malformed_rejected;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "committed artifacts round-trip" `Quick
            committed_round_trip;
          Alcotest.test_case "overload panels not regressed" `Quick
            overload_not_regressed;
        ] );
    ]
