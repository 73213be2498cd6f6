(** Unit tests for the per-file lint rules ([lib/analysis/file_rules.ml]):
    runtime boundary, mutable-atomic, format and waivers; and for
    [alloc-in-retry], the allocation half of the call graph's retry-loop
    discipline ([lib/analysis/helping.ml]).

    The shipped tree being clean is enforced by the [dune runtest] rule
    in [bin/dune]; here we pin the rules' behavior on fixtures — in
    particular that a direct [Stdlib.Atomic] use in [lib/core] fails,
    and that comments, strings, waivers, and the functor-constraint
    idiom do not. [scan] keeps the findings of the five rules judged
    here; the other cross-module analyses have their own fixtures in
    [test_analysis]. *)

let file_rules =
  [ "boundary"; "mutable-atomic"; "alloc-in-retry"; "format"; "waiver" ]

let scan path src =
  List.filter
    (fun f -> List.mem f.Analysis.rule file_rules)
    (Analysis.scan ~path src)

let rules fs = List.map (fun f -> f.Analysis.rule) fs

let boundary fs =
  List.filter (fun f -> f.Analysis.rule = "boundary") fs

let check_count what n fs = Alcotest.(check int) what n (List.length fs)

(* ---- boundary rule ----------------------------------------------------- *)

let test_core_stdlib_atomic () =
  (* The acceptance fixture: direct Stdlib.Atomic in lib/core fails. *)
  let fs = scan "lib/core/bad.ml" "let x = Stdlib.Atomic.make 0\n" in
  check_count "one finding" 1 fs;
  let f = List.hd fs in
  Alcotest.(check string) "rule" "boundary" f.Analysis.rule;
  Alcotest.(check int) "line" 1 f.Analysis.line

let test_forbidden_idents () =
  let flagged src = boundary (scan "lib/core/x.ml" src) <> [] in
  Alcotest.(check bool) "bare Atomic" true (flagged "let v = Atomic.make 0\n");
  Alcotest.(check bool) "Domain" true (flagged "let d = Domain.spawn f\n");
  Alcotest.(check bool) "Random" true (flagged "let r = Random.int 5\n");
  Alcotest.(check bool) "gettimeofday" true
    (flagged "let t = Unix.gettimeofday ()\n");
  (* prefixed paths go through a runtime functor: fine *)
  Alcotest.(check bool) "R.Atomic ok" false (flagged "let v = R.Atomic.get a\n");
  Alcotest.(check bool) "Runtime.Atomic ok" false
    (flagged "let v = Runtime.Real.Atomic.get a\n");
  Alcotest.(check bool) "domainslib-ish ident ok" false
    (flagged "let x = my_Domain.foo\n")

let test_exempt_paths () =
  let src = "let x = Stdlib.Atomic.make 0\nlet d = Domain.self ()\n" in
  check_count "lib/sim exempt" 0 (boundary (scan "lib/sim/mem.ml" src));
  check_count "lib/runtime exempt" 0
    (boundary (scan "lib/runtime/real.ml" src));
  check_count "nested path still checked" 2
    (boundary (scan "lib/core/sub/x.ml" src))

let test_comments_and_strings () =
  check_count "comment" 0
    (boundary (scan "lib/core/x.ml" "(* Stdlib.Atomic.make *)\nlet x = 1\n"));
  check_count "nested comment" 0
    (boundary
       (scan "lib/core/x.ml" "(* a (* Domain.spawn *) b *)\nlet x = 1\n"));
  check_count "string" 0
    (boundary (scan "lib/core/x.ml" "let s = \"Random.int\"\n"));
  check_count "string with escapes" 0
    (boundary (scan "lib/core/x.ml" "let s = \"\\\"Domain.\\\"\"\n"));
  check_count "comment containing string with close" 0
    (boundary
       (scan "lib/core/x.ml" "(* \"*)\" Unix.gettimeofday *)\nlet x = 1\n"));
  (* a char literal must not open a string *)
  check_count "char literal" 1
    (boundary
       (scan "lib/core/x.ml" "let c = '\"'\nlet x = Atomic.make 0\n"))

let test_waivers () =
  check_count "same-line waiver" 0
    (boundary
       (scan "lib/core/x.ml"
          "let x = Stdlib.Atomic.make 0 (* lint: allow *)\n"));
  check_count "line-above waiver" 0
    (boundary
       (scan "lib/core/x.ml"
          "(* lint: allow — setup only *)\nlet x = Stdlib.Atomic.make 0\n"));
  check_count "waiver does not leak further" 1
    (boundary
       (scan "lib/core/x.ml"
          "(* lint: allow *)\nlet x = 1\nlet y = Domain.self ()\n"));
  check_count "file waiver" 0
    (boundary
       (scan "lib/core/x.ml"
          "(* lint: allow-file *)\nlet x = Stdlib.Atomic.make 0\n\
           let d = Domain.self ()\n"));
  (* a file waiver does not suppress format findings *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow-file — bench driver owns the clock *)\n\
       let t = Unix.gettimeofday () \n"
  in
  Alcotest.(check (list string)) "format survives" [ "format" ] (rules fs)

let test_waiver_hygiene () =
  (* a waiver must carry a reason *)
  let fs =
    scan "lib/core/x.ml" "(* lint: allow *)\nlet x = Stdlib.Atomic.make 0\n"
  in
  Alcotest.(check (list string)) "reasonless waiver" [ "waiver" ] (rules fs);
  (* a waiver must cover a live finding *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow — plenty of justification *)\nlet x = 1\n"
  in
  Alcotest.(check (list string)) "stale waiver" [ "waiver" ] (rules fs);
  (* reasoned and live: silent *)
  check_count "reasoned live waiver" 0
    (scan "lib/core/x.ml"
       "(* lint: allow — setup-only id source *)\n\
        let x = Stdlib.Atomic.make 0\n");
  (* reasonless file waiver *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow-file *)\nlet x = Stdlib.Atomic.make 0\n"
  in
  Alcotest.(check (list string)) "reasonless file waiver" [ "waiver" ]
    (rules fs);
  (* stale file waiver: nothing in the file to waive *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow-file — driver owns its domains *)\nlet x = 1\n"
  in
  Alcotest.(check (list string)) "stale file waiver" [ "waiver" ] (rules fs);
  (* the marker must lead the comment; prose mentioning it is inert *)
  let fs =
    scan "lib/core/x.ml"
      "(* see the lint: allow marker in the docs *)\n\
       let x = Stdlib.Atomic.make 0\n"
  in
  Alcotest.(check (list string)) "mid-comment marker inert" [ "boundary" ]
    (rules fs)

(* ---- allocation in a retry loop ----------------------------------------- *)

let test_alloc_in_retry () =
  let alloc fs = List.filter (fun f -> f.Analysis.rule = "alloc-in-retry") fs in
  (* an array built on every failed attempt *)
  let hot =
    "let rec push q v =\n\
    \    let fresh = Array.make 4 v in\n\
    \    if M.cas q [] fresh then () else push q v\n"
  in
  check_count "array alloc in retry loop" 1 (alloc (scan "lib/core/x.ml" hot));
  (* a ref rebuilt per attempt *)
  let with_ref =
    "let rec push q v =\n\
    \    let cell = ref v in\n\
    \    if M.cas q [] cell then () else push q v\n"
  in
  check_count "ref alloc in retry loop" 1 (alloc (scan "lib/core/x.ml" with_ref));
  (* allocation hoisted before the loop: the blessed shape *)
  let hoisted =
    "let push q v =\n\
    \  let fresh = Array.make 4 v in\n\
    \  let rec go () = if M.cas q [] fresh then () else go () in\n\
    \  go ()\n"
  in
  check_count "hoisted alloc fine" 0 (alloc (scan "lib/core/x.ml" hoisted));
  (* fresh record literals are CAS arguments and must not be flagged *)
  let record =
    "let rec push q v =\n\
    \    let cur = M.get q in\n\
    \    if M.cas q cur { list = v :: cur.list; dirty = false } then ()\n\
    \    else push q v\n"
  in
  check_count "record literal fine" 0 (alloc (scan "lib/core/x.ml" record));
  (* a recursive item without a CAS is not a retry loop *)
  let no_cas =
    "let rec build n acc =\n\
    \    if n = 0 then acc else build (n - 1) (ref n :: acc)\n"
  in
  check_count "no cas, no finding" 0 (alloc (scan "lib/core/x.ml" no_cas));
  (* [int ref] in type position is not an allocation *)
  let type_pos =
    "let rec push (q : int ref M.t) v =\n\
    \    if M.cas q [] v then () else push q v\n"
  in
  check_count "ref type annotation fine" 0
    (alloc (scan "lib/core/x.ml" type_pos));
  (* a reasoned waiver silences it *)
  let waived =
    "let rec push q v =\n\
    \    (* lint: allow — rebuilt only when the observed value changed *)\n\
    \    let fresh = Array.make 4 v in\n\
    \    if M.cas q [] fresh then () else push q v\n"
  in
  check_count "waiver silences" 0 (alloc (scan "lib/core/x.ml" waived));
  (* baselines are exempt, as they are from static-retry *)
  check_count "baselines exempt" 0 (alloc (scan "lib/baselines/x.ml" hot))

(* Setup after a spin: the host is no retry loop (only its nested
   [spin] is on a call-graph cycle), so an allocation after the spin,
   outside it, allocates once. *)
let test_alloc_after_nested_spin () =
  let src =
    "let prepare l =\n\
    \  let rec spin () =\n\
    \    if not (R.Atomic.compare_and_set l false true) then begin\n\
    \      R.cpu_relax ();\n\
    \      spin ()\n\
    \    end\n\
    \  in\n\
    \  spin ();\n\
    \  let ops_done = Array.make 2 0 in\n\
    \  ops_done\n"
  in
  check_count "setup allocation after the spin fine" 0
    (scan "lib/core/x.ml" src)

let test_functor_constraint_idiom () =
  check_count "with type 'a Atomic.t" 0
    (boundary
       (scan "lib/core/x.mli"
          "include Runtime.S with type 'a Atomic.t = 'a R.Atomic.t\n"));
  (* interfaces are parsed too: a bare Atomic in a signature is a use *)
  check_count "val of bare Atomic.t" 1
    (boundary (scan "lib/core/y.mli" "val c : int Atomic.t\n"));
  Alcotest.(check (list string)) "unparsable interface" [ "parse" ]
    (List.map
       (fun f -> f.Analysis.rule)
       (Analysis.scan ~path:"lib/core/z.mli" "val c : int Atomic.t =\n"))

(* ---- mutable-record-behind-Atomic rule --------------------------------- *)

let test_mutable_atomic () =
  let fs =
    scan "lib/core/x.ml"
      "type node = { mutable next : int }\n\
       type t = { slot : node Atomic.t }\n"
  in
  (* the bare Atomic. is also flagged; look for the mutable finding *)
  Alcotest.(check bool) "flagged" true
    (List.exists (fun f -> f.Analysis.rule = "mutable-atomic") fs);
  let fs2 =
    scan "lib/core/x.ml"
      "type node = { mutable next : int }\nlet use (n : node) = n.next\n"
  in
  Alcotest.(check bool) "unpublished record fine" false
    (List.exists (fun f -> f.Analysis.rule = "mutable-atomic") fs2);
  let fs3 =
    scan "lib/core/x.ml"
      "type slot = { list : int list; dirty : bool }\n\
       type t = { root : slot A.t }\n"
  in
  Alcotest.(check bool) "immutable record fine" false
    (List.exists (fun f -> f.Analysis.rule = "mutable-atomic") fs3)

(* ---- format rules ------------------------------------------------------ *)

let test_format () =
  let fs = scan "lib/core/x.ml" "let x = 1 \nlet\ty = 2\nlet z = 3" in
  Alcotest.(check (list string))
    "three format findings"
    [ "format"; "format"; "format" ]
    (rules fs);
  Alcotest.(check (list int))
    "lines" [ 1; 2; 3 ]
    (List.map (fun f -> f.Analysis.line) fs);
  check_count "clean file" 0 (scan "lib/core/x.ml" "let x = 1\n")

(* ---- per-file and cross-module rules together ---------------------------- *)

(* Every rule reports through one waiver machinery, and co-located
   findings are not merged: republishing a shared read and bumping a
   [Stdlib.Atomic] counter on one line are a cross-module
   [stale-publish] and a per-file [boundary], and the full scan reports
   both. *)
let test_colocated_findings () =
  let src =
    "let mark q hits =\n\
    \  let root = M.get q in\n\
    \  if M.cas q root root then Stdlib.Atomic.incr hits\n"
  in
  let merged = Analysis.scan ~path:"lib/core/x.ml" src in
  Alcotest.(check (list string)) "both co-located findings reported"
    [ "boundary"; "stale-publish" ]
    (List.sort compare (rules merged));
  Alcotest.(check (list int)) "on the CAS line" [ 3; 3 ]
    (List.map (fun f -> f.Analysis.line) merged)

(* A mutable field behind an [Atomic.t]: the rule flags it at its
   declaration, and the full scan passes that finding through.
   [mutable-atomic] is the only rule that kills the [mutabilize]
   mutants, and the kill matrix reads the full scan. *)
let test_mutable_atomic_merged () =
  let src =
    "type slab = { mutable used : int; cap : int }\n\
     type t = { cell : slab Atomic.t }\n\n\
     let create () = Atomic.make { used = 0; cap = 8 }\n"
  in
  let lines fs =
    List.filter_map
      (fun f ->
        if f.Analysis.rule = "mutable-atomic" then Some f.Analysis.line
        else None)
      fs
  in
  Alcotest.(check (list int)) "per-file rules: at the declaration" [ 1 ]
    (lines (scan "lib/core/x.ml" src));
  Alcotest.(check (list int)) "full scan: the same finding" [ 1 ]
    (lines (Analysis.scan ~path:"lib/core/x.ml" src))

(* The registry must be duplicate-free — the table is what
   [--list-rules], the README and CI all derive from. *)
let test_rule_registry_consistent () =
  let names = List.map fst Analysis.rule_table in
  Alcotest.(check int) "registry names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---- mound-lint/1 JSON -------------------------------------------------- *)

(* The [repro lint --json] document, validated the way the bench
   artifacts are: emit, self-validate, parse the emitted string back
   through the Bench_json parser, re-validate, and compare the decoded
   findings field by field. *)
let test_lint_json_roundtrip () =
  let findings =
    Analysis.scan ~path:"lib/core/x.ml"
      "let bump q =\n\
      \  let n = R.Atomic.get q in\n\
      \  R.Atomic.set q (n + 1)\n"
  in
  check_count "fixture yields a finding" 1 findings;
  let emit ~rule findings =
    Harness.Lint_json.(codec.enc (doc ~roots:[ "lib" ] ~rule findings))
  in
  let doc = emit ~rule:None findings in
  (match Harness.Lint_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitted document invalid: %s" e);
  let reparsed = Harness.Bench_json.parse (Harness.Bench_json.to_string doc) in
  (match Harness.Lint_json.validate reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reparsed document invalid: %s" e);
  Alcotest.(check bool) "findings survive the round trip" true
    ((Harness.Lint_json.codec.dec reparsed).findings = findings);
  (* narrowed runs record the rule *)
  (match
     Harness.Lint_json.validate (emit ~rule:(Some "atomicity") findings)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "narrowed document invalid: %s" e);
  Alcotest.(check bool) "finding of an unregistered rule rejected" true
    (Result.is_error
       (Harness.Lint_json.validate
          (emit ~rule:None
             (List.map
                (fun (f : Analysis.finding) -> { f with rule = "no-such-rule" })
                findings))));
  (* malformed documents are rejected: count drift, a non-integral
     count, missing schema, a finding outside the rule filter *)
  let tamper k v =
    match doc with
    | Harness.Bench_json.Obj kvs ->
        Harness.Bench_json.Obj
          (List.filter_map
             (fun (k', v') ->
               if k' = k then Option.map (fun v -> (k, v)) v
               else Some (k', v'))
             kvs)
    | _ -> assert false
  in
  Alcotest.(check bool) "count drift rejected" true
    (Result.is_error
       (Harness.Lint_json.validate
          (tamper "count" (Some (Harness.Bench_json.Num 99.)))));
  Alcotest.(check bool) "non-integral count rejected" true
    (Result.is_error
       (Harness.Lint_json.validate
          (tamper "count" (Some (Harness.Bench_json.Num 1.5)))));
  Alcotest.(check bool) "missing schema rejected" true
    (Result.is_error (Harness.Lint_json.validate (tamper "schema" None)));
  Alcotest.(check bool) "finding outside the rule filter rejected" true
    (Result.is_error
       (Harness.Lint_json.validate
          (tamper "rule" (Some (Harness.Bench_json.Str "boundary")))))

(* ---- the shipped tree -------------------------------------------------- *)

let test_shipped_tree_clean () =
  (* Belt and braces: the runtest rule in bin/dune already enforces
     this, but running from the test binary keeps the guarantee even if
     the alias wiring regresses. Every rule, like [repro lint]: a scan
     without the cross-module analyses would misjudge as stale any
     waiver that covers one of their findings (stats.ml's layout
     waiver). Source may live elsewhere when built in a sandbox; skip
     silently if lib/ is not present. *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let fs = Analysis.scan_tree "lib" in
    List.iter
      (fun f -> Format.printf "%a@." Analysis.pp_finding f)
      fs;
    check_count "shipped lib/ clean" 0 fs
  end

(* [repro lint] is the one lint driver: the [@lint] alias and CI's Lint
   step fail only through its exit status. A tree with a finding exits
   1, a clean one 0, and [--list-rules] prints one line per registered
   rule. The executable is a declared dep of the tests stanza; cwd is
   _build/default/test under `dune runtest`. *)
let test_repro_lint_exit () =
  let repro = "../bin/repro.exe" in
  if not (Sys.file_exists repro) then Alcotest.failf "%s not built" repro;
  let root = Filename.temp_dir "lint" "" in
  let file = Filename.concat root "x.ml" in
  let run ?(stdout = Filename.null) args =
    Sys.command (Filename.quote_command repro ~stdout ~stderr:stdout args)
  in
  let write src = Out_channel.with_open_bin file (fun oc -> output_string oc src) in
  write "let x = 1 \n";
  Alcotest.(check int) "a finding exits 1" 1 (run [ "lint"; root ]);
  write "let x = 1\n";
  Alcotest.(check int) "a clean tree exits 0" 0 (run [ "lint"; root ]);
  let listing = Filename.concat root "rules.txt" in
  Alcotest.(check int) "--list-rules exits 0" 0
    (run ~stdout:listing [ "lint"; "--list-rules" ]);
  let listed = In_channel.with_open_bin listing In_channel.input_all in
  Sys.remove listing;
  Sys.remove file;
  Sys.rmdir root;
  Alcotest.(check (list string)) "one line per registered rule"
    (List.map fst Analysis.rule_table)
    (String.split_on_char '\n' listed
    |> List.filter (( <> ) "")
    |> List.map (fun l -> List.hd (String.split_on_char '\t' l)))

let () =
  Alcotest.run "lint"
    [
      ( "boundary",
        [
          Alcotest.test_case "Stdlib.Atomic in lib/core fails" `Quick
            test_core_stdlib_atomic;
          Alcotest.test_case "forbidden idents" `Quick test_forbidden_idents;
          Alcotest.test_case "runtime and sim exempt" `Quick test_exempt_paths;
          Alcotest.test_case "comments and strings stripped" `Quick
            test_comments_and_strings;
          Alcotest.test_case "waivers" `Quick test_waivers;
          Alcotest.test_case "waiver hygiene" `Quick test_waiver_hygiene;
          Alcotest.test_case "functor constraint idiom" `Quick
            test_functor_constraint_idiom;
        ] );
      ( "helping",
        [
          Alcotest.test_case "alloc-in-retry" `Quick test_alloc_in_retry;
          Alcotest.test_case "setup alloc after a nested spin" `Quick
            test_alloc_after_nested_spin;
        ] );
      ( "mutable-atomic",
        [ Alcotest.test_case "heuristic" `Quick test_mutable_atomic ] );
      ("format", [ Alcotest.test_case "rules" `Quick test_format ]);
      ( "engines",
        [
          Alcotest.test_case "co-located findings both reported" `Quick
            test_colocated_findings;
          Alcotest.test_case "mutable-atomic in the merged scan" `Quick
            test_mutable_atomic_merged;
          Alcotest.test_case "rule registry consistent" `Quick
            test_rule_registry_consistent;
        ] );
      ( "json",
        [
          Alcotest.test_case "mound-lint/1 round trip" `Quick
            test_lint_json_roundtrip;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shipped tree clean" `Quick
            test_shipped_tree_clean;
          Alcotest.test_case "repro lint exit status" `Quick
            test_repro_lint_exit;
        ] );
    ]
