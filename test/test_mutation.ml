(* The mutation tier: the committed kill matrix is the certificate that
   the static-analysis suite actually detects the defect classes it
   claims to — and this suite is the regression guard on that
   certificate.

   Three layers:

   - mound-mutation/1 artifact hygiene: the emitter's document survives
     a print/parse round trip, and [validate] rejects every tampered
     redundancy (count, killed, kill_rate, rule_kills, status ↔
     killed_by) — a hand-edited matrix cannot quietly misreport its own
     kill rate.

   - the committed baseline (bench/baseline/MUTATION_matrix.json):
     validates, carries at least 30 mutants, no registered defect rule
     silent (a rule earns its place by a kill), and every hand-seeded
     mutant class from [mutant_static.ml] re-derived by a catalog
     operator and killed by a surviving rule.

   - the live regression guard: regenerate the matrix from the current
     sources and compare against the baseline — the same kill triples
     and the same mutant and kill counts per (operator, file) pair. The
     static matrix is deterministic, so these are exact comparisons, not
     tolerances. Dynamic-twin escalation is the slow part; it runs only
     under MUTATION_FULL=1 (the @mutation alias declares the env var,
     so flipping it re-runs the tier).

   cwd is _build/default/test under `dune runtest` but the project root
   under `dune exec test/test_mutation.exe`; source-dependent cases
   probe for the tree and skip silently when it is not there, exactly
   like test_analysis's shipped-tree case — the @mutation alias, which
   declares (source_tree ../lib), is where the guard is enforced. *)

let baseline_path () =
  let rel = "bench/baseline/MUTATION_matrix.json" in
  if Sys.file_exists (Filename.concat ".." rel) then Filename.concat ".." rel
  else rel

let lib_root () =
  if Sys.file_exists "lib/core" then Some "lib"
  else if Sys.file_exists "../lib/core" then Some "../lib"
  else None

let full = Sys.getenv_opt "MUTATION_FULL" <> None

let load_baseline () =
  let path = baseline_path () in
  let doc = Harness.Bench_json.load path in
  (match Harness.Mutation_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: baseline invalid: %s" path e);
  doc

(* ---- mound-mutation/1 artifact hygiene --------------------------------- *)

(* A tiny synthetic matrix: one killed mutant, one survivor with a
   mapped twin, built through the real Killmatrix plumbing with an
   injected scanner keyed on the substituted source. *)
let fake_context = [ ("lib/core/f.ml", "PRISTINE") ]

let fake_scan files =
  if List.exists (fun (_, s) -> s = "KILLED-MUTANT") files then
    [
      {
        Analysis.file = "lib/core/f.ml";
        line = 3;
        rule = "atomicity";
        msg = "lost update";
      };
    ]
  else []

let fake_mutant ~id ~op ~src =
  {
    Analysis.Mutate.m_id = id;
    m_op = op;
    m_file = "lib/core/f.ml";
    m_line = 3;
    m_note = "synthetic";
    m_src = src;
  }

let fake_matrix () =
  Analysis.Killmatrix.run ~scan:fake_scan ~context:fake_context
    [
      fake_mutant ~id:"demote-rmw:f.ml:3" ~op:"demote-rmw" ~src:"KILLED-MUTANT";
      fake_mutant ~id:"swap-lock-order:f.ml:3" ~op:"swap-lock-order"
        ~src:"SURVIVING-MUTANT";
    ]

(* The escalated fake matrix: its survivor runs the lock-inversion
   twin, a two-thread program the liveness checker settles at once. *)
let fake_doc () =
  let k = fake_matrix () in
  Harness.Mutation_json.(
    codec.enc
      (doc ~files:k.k_files ~rules:k.k_rules
         (Harness.Mutation_exp.escalate k)))

let mutants_of doc = (Harness.Mutation_json.codec.dec doc).mutants

let test_round_trip () =
  let doc = fake_doc () in
  (match Harness.Mutation_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitted doc invalid: %s" e);
  let doc' = Harness.Bench_json.parse (Harness.Bench_json.to_string doc) in
  (match Harness.Mutation_json.validate doc' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-tripped doc invalid: %s" e);
  let rows = mutants_of doc' in
  Alcotest.(check int) "rows survive the trip" 2 (List.length rows);
  let find id =
    List.find (fun (r : Harness.Mutation_exp.row) -> r.id = id) rows
  in
  let killed = find "demote-rmw:f.ml:3" in
  Alcotest.(check string) "kill recorded" "killed" killed.status;
  Alcotest.(check (list string))
    "killing rule recorded" [ "atomicity" ] killed.killed_by;
  let survivor = find "swap-lock-order:f.ml:3" in
  (* the survivor carries its mapped twin and the twin's verdict *)
  Alcotest.(check string) "survivor status" "escalated" survivor.status;
  Alcotest.(check (option string))
    "mapped twin carried"
    (Some "lock-inversion-deadlock")
    survivor.twin

let test_malformed () =
  (match Harness.Bench_json.parse "{ not json" with
  | exception Harness.Bench_json.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage parsed");
  match Harness.Mutation_json.validate (Harness.Bench_json.parse "{}") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty object validated"

(* Every redundant field is cross-checked: tamper with each in turn and
   validate must reject. *)
let tamper_doc doc name f =
  match Harness.Mutation_json.validate (f doc) with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "tampered %s validated" name

let tamper name f = tamper_doc (fake_doc ()) name f

let rec set_field k v = function
  | Harness.Bench_json.Obj kvs ->
      Harness.Bench_json.Obj
        (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
  | j ->
      ignore (set_field k v (Harness.Bench_json.Obj []));
      j

let test_tamper () =
  tamper "count" (set_field "count" (Harness.Bench_json.Num 99.));
  tamper "killed" (set_field "killed" (Harness.Bench_json.Num 2.));
  tamper "kill_rate" (set_field "kill_rate" (Harness.Bench_json.Num 1.));
  tamper "rule_kills" (set_field "rule_kills" (Harness.Bench_json.Arr []));
  tamper "schema" (set_field "schema" (Harness.Bench_json.Str "mound-lint/1"));
  (* flip the killed row's status without touching killed_by: to a
     status no triage produces, and to a known one *)
  let flip_status status doc =
    match doc with
    | Harness.Bench_json.Obj _ -> (
        match Harness.Bench_json.member "mutants" doc with
        | Some (Harness.Bench_json.Arr ms) ->
            set_field "mutants"
              (Harness.Bench_json.Arr
                 (List.map
                    (fun m ->
                      match Harness.Bench_json.member "id" m with
                      | Some (Harness.Bench_json.Str "demote-rmw:f.ml:3") ->
                          set_field "status" (Harness.Bench_json.Str status) m
                      | _ -> m)
                    ms))
              doc
        | _ -> doc)
    | j -> j
  in
  tamper "status" (flip_status "survived");
  tamper "status gap" (flip_status "gap");
  (* typed decoding: a truncating validator accepted both *)
  let baseline = load_baseline () in
  let b = Harness.Mutation_json.codec.dec baseline in
  let off_by field n =
    tamper_doc baseline
      (Printf.sprintf "%s %d.5" field n)
      (set_field field (Harness.Bench_json.Num (float_of_int n +. 0.5)))
  in
  off_by "count" b.count;
  off_by "killed" b.killed

(* ---- the committed baseline -------------------------------------------- *)

(* Each hand-seeded defect class in mutant_static.ml that a static rule
   catches, as the (operator, killing rule) pair that re-derives it
   mechanically. The baseline must contain at least one killed mutant
   per pair. Where the rule also flags the fixture, the two certify it
   from two directions; the other fixtures are pinned in test_analysis:
   the lock inversion under liveness (no static rule sees acquisition
   order), the spawn counter under DPOR, and the published-record write
   by post-publish-mutation. *)
let seeded_classes =
  [
    ("Post_publish_mutation", "inplace-publish", "post-publish-mutation");
    ("Aliased_helper_dropped", "drop-help", "static-retry");
    ("Unstamped_publish", "drop-stamp", "aba-risk");
    ("Lost_update", "demote-rmw", "atomicity");
    ("Counter_drift", "demote-rmw", "atomicity");
    ("Unpadded_top_row", "drop-pad", "layout");
    ("Spawn_counter_race", "mutabilize", "mutable-atomic");
    ("Published_record_write", "mutabilize", "mutable-atomic");
  ]

let test_baseline_valid () =
  let doc = Harness.Mutation_json.codec.dec (load_baseline ()) in
  Alcotest.(check bool)
    "at least 30 mutants" true
    (List.length doc.mutants >= 30);
  (* no rule silent: every registered defect rule scores at least one
     kill, so a rule that kills nothing cannot be added back *)
  let kills = doc.rule_kills in
  List.iter
    (fun (rule, _) ->
      if not (List.mem rule Analysis.Killmatrix.hygiene_rules) then
        match List.assoc_opt rule kills with
        | Some n when n >= 1 -> ()
        | Some _ -> Alcotest.failf "rule %s silent in the baseline" rule
        | None -> Alcotest.failf "rule %s missing from the baseline" rule)
    Analysis.rule_table

(* Every operator targets registered defect rules. [Mutate.target_rules]
   is the rule universe the matrix is judged over, so an operator still
   naming a retired rule would widen it with a name no scan can report;
   a hygiene rule would credit kills to a malformed mutant. *)
let test_operator_rules_registered () =
  let registered = List.map fst Analysis.rule_table in
  List.iter
    (fun (o : Analysis.Mutate.op) ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s targets registered defect rule %s" o.op_name r)
            true
            (List.mem r registered
            && not (List.mem r Analysis.Killmatrix.hygiene_rules)))
        o.op_rules)
    Analysis.Mutate.catalog

let test_baseline_rederives_seeded () =
  let rows = mutants_of (load_baseline ()) in
  List.iter
    (fun (cls, op, rule) ->
      let hit =
        List.exists
          (fun (r : Harness.Mutation_exp.row) ->
            r.op = op && r.status = "killed" && List.mem rule r.killed_by)
          rows
      in
      if not hit then
        Alcotest.failf
          "seeded class %s: no %s mutant killed by %s in the baseline" cls op
          rule)
    seeded_classes

(* ---- operator shapes ---------------------------------------------------- *)

(* A locking fixture in the shapes an allocation-lean lock takes: the
   acquisition loop is a [let rec spin ... and miss ...] pair whose
   backoff sits in [miss], and a give-up is a sentinel witness checked
   with [==] before the child is locked. [spin] helps but its group backs
   off, so [drop-help] has no site (static-retry could never see the
   drop); the parent/child pair behind the give-up check is one
   [swap-lock-order] site. *)
let giveup_fixture =
  {|
type node = { list : int list; locked : bool; seq : int }

let gave_up = { list = []; locked = true; seq = -1 }

let restamp slot ~witness fresh = Atomic.compare_and_set slot witness fresh

let unlock slot ~witness list =
  restamp slot ~witness { list; locked = false; seq = witness.seq + 1 }

let rec spin t slot ~deadline =
  let n = Atomic.get slot in
  if not n.locked then begin
    let mine = { list = n.list; locked = true; seq = n.seq + 1 } in
    if Atomic.compare_and_set slot n mine then mine
    else miss t slot ~deadline
  end
  else if t.revoke then begin
    moundify t slot;
    spin t slot ~deadline
  end
  else miss t slot ~deadline

and miss t slot ~deadline =
  if expired ~deadline then gave_up
  else begin
    cpu_relax ();
    spin t slot ~deadline
  end

and set_lock_until t slot ~deadline = spin t slot ~deadline

let insert t pslot cslot v ~deadline =
  let wp = set_lock_until t pslot ~deadline in
  if wp == gave_up then false
  else
    let wc = set_lock_until t cslot ~deadline in
    if wc == gave_up then begin
      ignore (unlock pslot ~witness:wp wp.list);
      false
    end
    else begin
      ignore (unlock pslot ~witness:wp wp.list);
      unlock cslot ~witness:wc (v :: wc.list)
    end
|}

let test_giveup_shapes () =
  let ms =
    Analysis.Mutate.mutants
      ~ops:[ "drop-help"; "swap-lock-order" ]
      [ ("lib/core/giveup.ml", giveup_fixture) ]
  in
  let count op =
    List.length
      (List.filter (fun (m : Analysis.Mutate.mutant) -> m.m_op = op) ms)
  in
  Alcotest.(check int) "no drop-help site on a backing-off group" 0
    (count "drop-help");
  Alcotest.(check int) "one swap-lock-order site through the give-up check"
    1 (count "swap-lock-order")

(* The lock-free mound's node is a variant of inline records, and its
   CASes publish constructor literals: [Node { n with dirty = false;
   ... }], or a [match] of them when the node may be empty. The
   operators that read a CAS argument's record must see through both:
   [drop-completion] flips every clean literal of the loop (and
   static-retry then fires), and [inplace-publish] republishes the read,
   writes a field through it and marks that field of the inline record
   mutable (stale-publish and post-publish-mutation then fire). *)
let node_fixture =
  {|
type node =
  | Empty of { dirty : bool; seq : int }
  | Node of { hd : int; tl : int list; dirty : bool; seq : int }

let rec settle slot =
  let cur = M.get slot in
  if
    M.cas slot cur
      (match cur with
      | Empty e -> Empty { dirty = false; seq = e.seq + 1 }
      | Node n -> Node { n with dirty = false; seq = n.seq + 1 })
  then ()
  else settle slot
|}

let node_mutant op =
  let path = "lib/core/node.ml" in
  match
    Analysis.Mutate.mutants ~ops:[ op ] [ (path, node_fixture) ]
  with
  | [ m ] ->
      let rules =
        Analysis.scan ~path m.Analysis.Mutate.m_src
        |> List.map (fun (f : Analysis.finding) -> f.rule)
        |> List.sort_uniq compare
      in
      (m, rules)
  | l -> Alcotest.failf "%s: %d sites, expected 1" op (List.length l)

let test_completion_through_constructor () =
  let m, rules = node_mutant "drop-completion" in
  Alcotest.(check string)
    "both clean literals flipped"
    "2 completing stores in settle no longer publish clean" m.m_note;
  Alcotest.(check (list string)) "static-retry resurfaces" [ "static-retry" ]
    rules

(* [drop-stamp]'s re-validation half also deletes a protocol bit read
   through an accessor named for it ([is_dirty cur], [not (is_locked
   cur)]), the shape the lock-free mound's [moundify] reads its dirty
   bit in. *)
let accessor_fixture =
  {|
type node = { list : int list; dirty : bool; locked : bool; seq : int }

let is_dirty n = n.dirty
let is_locked n = n.locked

let rec settle slot =
  let cur = M.get slot in
  if not (is_dirty cur) then ()
  else if is_locked cur then settle slot
  else if M.cas slot cur { cur with dirty = false; seq = cur.seq + 1 } then ()
  else settle slot
|}

let test_stamp_drop_through_accessor () =
  match
    Analysis.Mutate.mutants ~ops:[ "drop-stamp" ]
      [ ("lib/core/acc.ml", accessor_fixture) ]
  with
  | [ m ] ->
      Alcotest.(check string)
        "stamp frozen, both accessor reads deleted"
        "version discipline dropped: 1 stamps frozen, 2 re-validation \
         reads removed"
        m.m_note;
      Alcotest.(check bool)
        "no accessor read left in the loop" false
        (Analysis.Summary.contains_sub m.m_src "(is_dirty cur)"
        || Analysis.Summary.contains_sub m.m_src "is_locked cur")
  | l -> Alcotest.failf "drop-stamp: %d sites, expected 1" (List.length l)

let test_inplace_through_constructor () =
  let m, rules = node_mutant "inplace-publish" in
  Alcotest.(check bool)
    "the inline record's field marked mutable" true
    (Analysis.Summary.contains_sub m.m_src "mutable dirty");
  Alcotest.(check (list string))
    "publication rules fire"
    [ "post-publish-mutation"; "stale-publish" ]
    (List.filter
       (fun r -> r = "post-publish-mutation" || r = "stale-publish")
       rules)

(* The three lock operators mutate the shipped locking mound with their
   defect edit alone: each mutant differs from the shipped source in one
   contiguous span, inside the one function that hosts the mutant's
   line. *)
let test_lock_ops_defect_only () =
  match lib_root () with
  | None -> ()
  | Some root ->
      let path = Filename.concat root "core/lock_mound.ml" in
      let src = Analysis.read_file path in
      let p =
        match Analysis.Frontend.parse ~path src with
        | Ok p -> p
        | Error _ -> Alcotest.failf "%s does not parse" path
      in
      let line_at i =
        let l = ref 1 in
        String.iteri (fun j c -> if j < i && c = '\n' then incr l) src;
        !l
      in
      (* each function's byte span: what [replace] would rewrite *)
      let fns = ref [] in
      Analysis.Mutate.on_bindings p (fun _ e ->
          let { Analysis.Mutate.e_start; e_stop; _ } =
            Analysis.Mutate.replace e ""
          in
          fns := (e_start, e_stop) :: !fns);
      let ms =
        Analysis.Mutate.mutants
          ~ops:[ "drop-unlock"; "swap-lock-order"; "drop-completion" ]
          [ (path, src) ]
      in
      Alcotest.(check bool) "the lock operators have sites" true (ms <> []);
      List.iter
        (fun (m : Analysis.Mutate.mutant) ->
          let n = String.length src and n' = String.length m.m_src in
          let pre = ref 0 in
          while !pre < min n n' && src.[!pre] = m.m_src.[!pre] do
            incr pre
          done;
          let suf = ref 0 in
          while
            !suf < min n n' - !pre
            && src.[n - 1 - !suf] = m.m_src.[n' - 1 - !suf]
          do
            incr suf
          done;
          let hosts (a, b) =
            a <= !pre
            && n - !suf <= b
            && line_at a <= m.m_line
            && m.m_line <= line_at b
          in
          if not (List.exists hosts !fns) then
            Alcotest.failf "%s edits outside the function it mutates" m.m_id)
        ms

(* The lock operators find releases by shape
   ({!Analysis.Summary.is_release}), not by name: with [unlock] and
   [restamp] renamed (to names of the same length, so every site keeps
   its line), the locking mound keeps its [drop-unlock] and
   [drop-completion] sites. *)
let test_lock_ops_by_shape () =
  match lib_root () with
  | None -> ()
  | Some root ->
      let path = Filename.concat root "core/lock_mound.ml" in
      let src = Analysis.read_file path in
      let rename ~sub ~by s =
        let n = String.length sub in
        let b = Buffer.create (String.length s) in
        let i = ref 0 in
        while !i < String.length s do
          if !i + n <= String.length s && String.sub s !i n = sub then begin
            Buffer.add_string b by;
            i := !i + n
          end
          else begin
            Buffer.add_char b s.[!i];
            incr i
          end
        done;
        Buffer.contents b
      in
      let renamed =
        rename ~sub:"unlock" ~by:"let_go" src
        |> rename ~sub:"restamp" ~by:"rewrite"
      in
      let sites src =
        Analysis.Mutate.mutants
          ~ops:[ "drop-unlock"; "drop-completion" ]
          [ (path, src) ]
        |> List.map (fun (m : Analysis.Mutate.mutant) -> (m.m_op, m.m_line))
      in
      let shipped = sites src in
      let has op = List.exists (fun (o, _) -> o = op) shipped in
      Alcotest.(check bool)
        "both operators have sites" true
        (has "drop-unlock" && has "drop-completion");
      Alcotest.(check bool)
        "the rename changed the source" false (renamed = src);
      Alcotest.(check (list (pair string int)))
        "renamed releases keep their sites" shipped (sites renamed)

(* ---- the live regression guard ----------------------------------------- *)

let context_roots root =
  List.map (Filename.concat root) [ "core"; "mcas"; "runtime" ]

let live_matrix root =
  let context =
    List.concat_map Analysis.files_under (context_roots root)
    |> List.sort compare
    |> List.map (fun p -> (p, Analysis.read_file p))
  in
  let targets =
    List.filter
      (fun (p, _) ->
        Filename.check_suffix p ".ml"
        && Filename.basename (Filename.dirname p) = "core")
      context
  in
  Analysis.killmatrix ~context (Analysis.Mutate.mutants targets)

(* EXPERIMENTS.md's matrix rule, exactly: the live matrix has the
   committed (operator, file, rule) kill triples, and per (operator,
   file) pair the committed numbers of mutants and of killed mutants.
   Neither carries a line number, so a refactor that only moves lines
   passes; one that adds, drops or trades a kill must re-record the
   baseline, which also pins the kill rate. *)
let test_kill_rate_guard () =
  match lib_root () with
  | None -> () (* sandbox without sources; the @mutation alias has them *)
  | Some root ->
      let committed =
        List.map
          (fun (r : Harness.Mutation_exp.row) ->
            (r.op, Filename.basename r.file, r.killed_by))
          (mutants_of (load_baseline ()))
      in
      let live =
        List.map
          (fun (r : Analysis.Killmatrix.row) ->
            let m = r.r_mutant in
            (m.m_op, Filename.basename m.m_file, r.r_killed_by))
          (live_matrix root).k_rows
      in
      let triples rows =
        List.concat_map
          (fun (op, file, rules) -> List.map (fun r -> (op, file, r)) rules)
          rows
        |> List.sort_uniq compare
      in
      (* one (operator, file, killed?) entry per mutant: equal sorted
         lists mean equal mutant and kill counts per pair *)
      let counts rows =
        List.sort compare
          (List.map (fun (op, file, rules) -> (op, file, rules <> [])) rows)
      in
      Alcotest.(check (list (triple string string string)))
        "(operator, file, rule) kill triples as committed" (triples committed)
        (triples live);
      Alcotest.(check (list (triple string string bool)))
        "mutants and kills per (operator, file) as committed"
        (counts committed) (counts live)

(* Survivor escalation against the dynamic twins: slow (DPOR + liveness
   runs), so MUTATION_FULL=1 only. Every operator with a mapped twin
   whose mutants survive must come back [escalated] or [benign] — a
   [gap] on a mapped twin means the twin table and the catalog drifted. *)
let test_escalation_full () =
  match lib_root () with
  | None -> ()
  | Some root ->
      if not full then ()
      else
        let m = live_matrix root in
        let es = Harness.Mutation_exp.escalate m in
        List.iter
          (fun (e : Harness.Mutation_exp.row) ->
            if e.status = "gap" && e.twin <> None then
              Alcotest.failf "mutant %s: mapped twin %s came back as a gap"
                e.id
                (Option.value e.twin ~default:"?"))
          es;
        (* the lock-inversion twin must actually deadlock: the class the
           swap operator plants is real and dynamically caught *)
        let swaps =
          List.filter
            (fun (e : Harness.Mutation_exp.row) ->
              e.twin = Some "lock-inversion-deadlock")
            es
        in
        if swaps <> [] then
          Alcotest.(check bool)
            "some lock-order swap escalates to a confirmed deadlock" true
            (List.exists
               (fun (e : Harness.Mutation_exp.row) -> e.status = "escalated")
               swaps)

let () =
  Alcotest.run "mutation"
    [
      ( "artifact",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "malformed rejected" `Quick test_malformed;
          Alcotest.test_case "tampering rejected" `Quick test_tamper;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "valid, >=30 mutants, no rule silent" `Quick
            test_baseline_valid;
          Alcotest.test_case "hand-seeded classes re-derived" `Quick
            test_baseline_rederives_seeded;
          Alcotest.test_case "operators target registered rules" `Quick
            test_operator_rules_registered;
        ] );
      ( "operators",
        [
          Alcotest.test_case "give-up shapes: no drop-help, one swap" `Quick
            test_giveup_shapes;
          Alcotest.test_case "drop-completion through a constructor" `Quick
            test_completion_through_constructor;
          Alcotest.test_case "inplace-publish through a constructor" `Quick
            test_inplace_through_constructor;
          Alcotest.test_case "drop-stamp through a bit accessor" `Quick
            test_stamp_drop_through_accessor;
          Alcotest.test_case "lock operators carry only their defect edit"
            `Quick test_lock_ops_defect_only;
          Alcotest.test_case "lock operators find releases by shape" `Quick
            test_lock_ops_by_shape;
        ] );
      ( "guard",
        [
          Alcotest.test_case "kill rate not regressed" `Slow
            test_kill_rate_guard;
          Alcotest.test_case "survivors escalate (MUTATION_FULL)" `Slow
            test_escalation_full;
        ] );
    ]
