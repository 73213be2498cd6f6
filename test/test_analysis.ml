(** Unit tests for the cross-module {!Analysis} rules: per-rule
    fixtures (positive and negative), waiver interaction, the seeded
    {!Mutant_static} defects, and dynamic cross-checks of the same
    mutant code under the liveness and DPOR tiers.

    The shipped tree being clean under every rule is enforced by the
    [@lint] alias in [bin/dune]; here we pin the analyses' behavior on
    fixtures the way [test_lint] does for the per-file rules. *)

let scan path src = Analysis.scan ~path src
let with_rule r fs = List.filter (fun f -> f.Analysis.rule = r) fs
let check_count what n fs = Alcotest.(check int) what n (List.length fs)

(* ---- publication safety ------------------------------------------------ *)

let test_stale_publish () =
  let bad =
    "let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (M.cas q root root)\n"
  in
  check_count "re-publishing a shared read flagged" 1
    (with_rule "stale-publish" (scan "lib/core/x.ml" bad));
  let fresh =
    "let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (M.cas q root { list = root.list; dirty = false })\n"
  in
  check_count "fresh copy fine" 0
    (with_rule "stale-publish" (scan "lib/core/x.ml" fresh))

let test_post_publish_mutation () =
  let bad =
    "let extract q =\n\
    \  let root = M.get q in\n\
    \  if M.cas q root root then root.list <- []\n"
  in
  check_count "mutation after publish flagged" 1
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" bad));
  let shared =
    "let bump q =\n\
    \  let n = M.get q in\n\
    \  n.count <- n.count + 1\n"
  in
  check_count "mutating a shared read flagged" 1
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" shared));
  let local =
    "let build v =\n\
    \  let n = { count = 0; v } in\n\
    \  n.count <- 1;\n\
    \  n\n"
  in
  check_count "mutating a local fresh record fine" 0
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" local))

(* An atomic read is a dotted [get] with one positional argument:
   [ctxs.(d)] is the two-argument [Array.get], a plain heap read, so a
   write through what it returns mutates no shared record. *)
let test_array_element_is_no_shared_read () =
  let element =
    "let step ctxs d =\n\
    \  let c = ctxs.(d) in\n\
    \  c.count <- c.count + 1\n"
  in
  check_count "a write through an array element fine" 0
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" element));
  let read =
    "let step slot =\n\
    \  let c = R.Atomic.get slot in\n\
    \  c.count <- c.count + 1\n"
  in
  check_count "the same write through an atomic read flagged" 1
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" read))

(* A function that forwards a parameter into a CAS fresh slot (the
   [Summary] [publishes] fact: {!Lf_mound}'s [cas_reusing] shape) is a
   publication site for that argument, whether it is a module-level
   wrapper or a [let]-bound local helper. *)
let test_publish_through_wrapper () =
  let wrapper =
    "let cas_reusing slot cur fresh =\n\
    \  M.cas slot cur fresh || (M.get slot == cur && M.cas slot cur fresh)\n\n\
     let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (cas_reusing q root root)\n"
  in
  Alcotest.(check (list int))
    "a shared read handed to a wrapper's fresh slot" [ 6 ]
    (List.map
       (fun f -> f.Analysis.line)
       (with_rule "stale-publish" (scan "lib/core/x.ml" wrapper)))

let test_publish_through_local_helper () =
  let local =
    "let mark q =\n\
    \  let publish cur fresh = M.cas q cur fresh in\n\
    \  let root = M.get q in\n\
    \  ignore (publish root root)\n"
  in
  Alcotest.(check (list int))
    "a shared read handed to a local helper's fresh slot" [ 4 ]
    (List.map
       (fun f -> f.Analysis.line)
       (with_rule "stale-publish" (scan "lib/core/x.ml" local)))

(* A wrapper's published parameter is numbered among its positional
   parameters only, as a call site's arguments are: [Lock_mound.restamp]
   and [unlock] take the witness by label. *)
let test_publish_through_labelled_wrapper () =
  let labelled =
    "let pub slot ~witness fresh = R.Atomic.compare_and_set slot witness \
     fresh\n\n\
     let mark slot =\n\
    \  let cur = R.Atomic.get slot in\n\
    \  ignore (pub slot ~witness:cur cur)\n"
  in
  Alcotest.(check (list int))
    "a shared read handed to a labelled wrapper's fresh slot" [ 5 ]
    (List.map
       (fun f -> f.Analysis.line)
       (with_rule "stale-publish" (scan "lib/core/x.ml" labelled)))

let test_mutation_after_wrapper_publish () =
  let mutate =
    "let cas_reusing slot cur fresh = M.cas slot cur fresh\n\n\
     let extract q =\n\
    \  let fresh = { list = []; dirty = false } in\n\
    \  if cas_reusing q (M.get q) fresh then fresh.dirty <- true\n"
  in
  Alcotest.(check (list int))
    "a field write after a wrapper publish" [ 5 ]
    (List.map
       (fun f -> f.Analysis.line)
       (with_rule "post-publish-mutation" (scan "lib/core/x.ml" mutate)))

(* ---- the MultiQueue idioms --------------------------------------------- *)

(* The relaxed front-end's cached-top word, distilled: a peeker must
   never CAS back the very value it read (the cache stops tracking the
   backing queue the moment the CAS succeeds over a concurrent
   extract); the unlock path publishes a freshly recomputed head
   instead. The shipped multiqueue.ml itself is covered by the
   clean-tree assertion below (its discipline holds, so the lint stays
   silent over it); this fixture pins that the rule would actually fire
   if the discipline broke. *)
let test_multiqueue_top_cache () =
  let republish =
    "let refresh_top cell =\n\
    \  let cached = R.Atomic.get cell in\n\
    \  ignore (R.Atomic.compare_and_set cell cached cached)\n"
  in
  check_count "republishing the cached top flagged" 1
    (with_rule "stale-publish" (scan "lib/core/x.ml" republish));
  let recompute =
    "let refresh_top cell q =\n\
    \  let cached = R.Atomic.get cell in\n\
    \  ignore (R.Atomic.compare_and_set cell cached (head q))\n"
  in
  check_count "publishing a recomputed head fine" 0
    (with_rule "stale-publish" (scan "lib/core/x.ml" recompute))

(* The MultiQueue's versioned try-lock: the word is even when free, the
   acquiring CAS moves an even [v] to [v + 1] and the release adds 1, so
   the word only grows and the expected value cannot recur. Two
   functions CAS the word, so it is recycled elsewhere and only the
   bump keeps [aba-risk] quiet; a decrement, or a step of 0, is still
   flagged. *)
let test_version_bump () =
  let lock fresh =
    Printf.sprintf
      "let try_lock cell =\n\
      \  let v = R.Atomic.get cell.lock in\n\
      \  v land 1 = 0 && R.Atomic.compare_and_set cell.lock v %s\n\n\
       let try_take cell =\n\
      \  let v = R.Atomic.get cell.lock in\n\
      \  let w = R.Atomic.get cell.top in\n\
      \  w = 0 && R.Atomic.compare_and_set cell.lock v (v + 1)\n"
      fresh
  in
  check_count "a version bump is no ABA" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" (lock "(v + 1)")));
  check_count "literal first" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" (lock "(2 + v)")));
  check_count "a decrement can recur" 1
    (with_rule "aba-risk" (scan "lib/core/x.ml" (lock "(v - 1)")));
  check_count "a zero step is no bump" 1
    (with_rule "aba-risk" (scan "lib/core/x.ml" (lock "(v + 0)")))

(* ---- retry-loop discipline --------------------------------------------- *)

let test_static_retry () =
  let bare =
    "let rec push q v =\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = v :: cur.list; seq = cur.seq + 1 } then ()\n\
    \  else push q v\n"
  in
  check_count "bare retry flagged" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" bare));
  let with_backoff =
    "let rec push q v =\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = v :: cur.list; seq = cur.seq + 1 } then ()\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    push q v\n\
    \  end\n"
  in
  check_count "backoff silences" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" with_backoff));
  (* helping recognized by shape through an alias: the helper is bound
     as [restore] and called, and no helper-shaped name appears in the
     loop *)
  let aliased_called =
    "let finish q =\n\
    \  let cur = M.get q in\n\
    \  ignore (M.cas q cur { list = cur.list; dirty = false })\n\n\
     let rec pull q =\n\
    \  let restore = finish in\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = cur.list; dirty = cur.dirty } then ()\n\
    \  else begin\n\
    \    restore q;\n\
    \    pull q\n\
    \  end\n"
  in
  check_count "aliased helper silences" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" aliased_called));
  (* mutual recursion is a cycle too *)
  let mutual =
    "let rec ping q =\n\
    \  if M.cas q 0 1 then () else pong q\n\n\
     and pong q =\n\
    \  if M.cas q 1 0 then () else ping q\n"
  in
  Alcotest.(check bool) "mutual recursion flagged" true
    (with_rule "static-retry" (scan "lib/core/x.ml" mutual) <> []);
  (* exempt trees keep their published loop shapes *)
  check_count "baselines exempt" 0
    (with_rule "static-retry" (scan "lib/baselines/x.ml" bare))

(* A blind CAS helps the loops of its own file only. [Grow.find] is
   [Tree.find_insert_point]'s shape: it retries around [expand]'s
   result-discarded one-shot CAS, which completes the growth itself. An
   insert loop in another file that probes through [find] and retries
   its own CAS without backoff gets no help from that CAS. *)
let test_blind_cas_helps_own_file () =
  let grow =
    "let expand t d = ignore (R.Atomic.compare_and_set t.depth d (d + 1))\n\n\
     let rec find t ~ge =\n\
    \  let d = R.Atomic.get t.depth in\n\
    \  if ge d then d\n\
    \  else begin\n\
    \    expand t d;\n\
    \    find t ~ge\n\
    \  end\n"
  in
  let ins =
    "let rec insert t q v =\n\
    \  let c = Grow.find t ~ge:(fun d -> d > v) in\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = v :: cur.list; at = c } then ()\n\
    \  else insert t q v\n"
  in
  let fs =
    with_rule "static-retry"
      (Analysis.scan_files
         [ ("lib/core/grow.ml", grow); ("lib/core/ins.ml", ins) ])
  in
  Alcotest.(check (list (pair string int)))
    "only the insert loop flagged" [ ("lib/core/ins.ml", 1) ]
    (List.map (fun f -> (f.Analysis.file, f.Analysis.line)) fs)

(* A call through a parameter resolves to nothing, not to the
   module-level function of the same name. [fallback] is
   [Tree.fallback_point]'s shape placed beside a mound's own [ge]: its
   loop calls the [~ge] it was given, and the file's own [ge] performs
   an observed CAS, which the loop must not inherit. A real CAS loop
   beside it is still flagged. *)
let test_param_shadows_function () =
  let src =
    "let ge q v =\n\
    \  let cur = M.get q in\n\
    \  M.cas q cur { list = v :: cur.list; seq = cur.seq + 1 }\n\n\
     let rec fallback t ~ge =\n\
    \  if ge t.depth then t.depth\n\
    \  else begin\n\
    \    t.depth <- t.depth + 1;\n\
    \    fallback t ~ge\n\
    \  end\n\n\
     let rec push q v = if ge q v then () else push q v\n"
  in
  Alcotest.(check (list int))
    "only the loop through the module-level ge" [ 12 ]
    (List.map
       (fun f -> f.Analysis.line)
       (with_rule "static-retry" (scan "lib/core/x.ml" src)))

(* ---- aba-risk ---------------------------------------------------------- *)

let test_aba_risk () =
  (* the CAS compares the bare read while another function recycles the
     location: the ABA window the paper's seq stamp exists to close *)
  let bare =
    "let recycle q = R.Atomic.set q None\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if not (R.Atomic.compare_and_set q cur (Some v)) then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "bare compared read over a recycled slot flagged" 1
    (with_rule "aba-risk" (scan "lib/core/x.ml" bare));
  (* folding a bumped version counter into the fresh value closes it *)
  let stamped =
    "let recycle q =\n\
    \  let cur = R.Atomic.get q in\n\
    \  ignore (R.Atomic.compare_and_set q cur { row = None; ver = cur.ver + 1 })\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if\n\
    \    not (R.Atomic.compare_and_set q cur { row = Some v; ver = cur.ver + 1 })\n\
    \  then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "version stamp silences" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" stamped));
  (* re-validating the read's protocol bits before the CAS also counts *)
  let revalidated =
    "let recycle q = R.Atomic.set q None\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if cur.dirty then publish q v\n\
    \  else if not (R.Atomic.compare_and_set q cur (Some v)) then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "dirty re-validation silences" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" revalidated));
  (* a location nothing else overwrites has no recycler to race *)
  let single_writer =
    "let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if not (R.Atomic.compare_and_set q cur (Some v)) then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "single-writer location fine" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" single_writer))

(* Location keys are names, so [aba-risk] counts only the writers in
   the CAS's own file: a [set] of a variable named [a] in another file
   says nothing about this file's [a], and must not make the verdict
   depend on which roots are scanned. A record field's key is its name
   alone, as ambiguous across files without types, so a writer of a
   field [root] in another file is not counted either, by decision: it
   may be a real recycler of the same field, and the rule gives that up
   so that no other file's field of the same name decides a verdict. A
   second writer in the CAS's own file is still a recycler, for either
   kind of key. *)
let test_aba_risk_writers_per_file () =
  let aba files = with_rule "aba-risk" (Analysis.scan_files files) in
  let var_cas =
    "let bump a =\n\
    \  let cur = R.Atomic.get a in\n\
    \  ignore (R.Atomic.compare_and_set a cur (Some 1))\n"
  in
  let var_set = "let reset a = R.Atomic.set a None\n" in
  check_count "a writer of another file's [a] is no recycler" 0
    (aba [ ("lib/core/x.ml", var_cas); ("lib/core/y.ml", var_set) ]);
  check_count "a writer of [a] in the same file still is" 1
    (aba [ ("lib/core/x.ml", var_cas ^ "\n" ^ var_set) ]);
  let field_cas =
    "let bump t =\n\
    \  let cur = R.Atomic.get t.root in\n\
    \  ignore (R.Atomic.compare_and_set t.root cur (Some 1))\n"
  in
  let field_set = "let reset q = R.Atomic.set q.root None\n" in
  check_count "a writer of [root] in another file is not counted" 0
    (aba [ ("lib/core/x.ml", field_cas); ("lib/core/y.ml", field_set) ]);
  check_count "a writer of [root] in the same file is" 1
    (aba [ ("lib/core/x.ml", field_cas ^ "\n" ^ field_set) ])

(* A shared read is re-validated by a [match] pattern on one of its
   protocol fields, and by a call of an accessor that returns only such
   a field ([is_dirty cur], as the lock-free mound reads its dirty bit),
   as by the field read [cur.dirty]; a pattern on, or an accessor of,
   any other field is no re-validation. *)
let test_revalidation_shapes () =
  let aba body =
    with_rule "aba-risk"
      (scan "lib/core/x.ml"
         ("let recycle q = R.Atomic.set q None\n\n\
           let is_dirty = function Empty { dirty; _ } | Node { dirty; _ } -> \
           dirty\n\n\
           let head n = n.hd\n\n\
           let rec publish q v =\n\
          \  let cur = R.Atomic.get q in\n" ^ body))
  in
  let cas =
    "R.Atomic.compare_and_set q cur (Some v) || (R.cpu_relax (); publish q v)"
  in
  let guarded test = Printf.sprintf "  if %s then publish q v else %s\n" test cas in
  check_count "an accessor of the dirty bit re-validates" 0
    (aba (guarded "is_dirty cur"));
  check_count "an accessor of another field does not" 1
    (aba (guarded "head cur = 0"));
  let matched pat =
    Printf.sprintf
      "  match cur with\n  | %s -> publish q v\n  | _ -> %s\n" pat cas
  in
  check_count "a pattern on the dirty bit re-validates" 0
    (aba (matched "Node { dirty = true; _ }"));
  check_count "a pattern on another field does not" 1
    (aba (matched "Node { hd = 0; _ }"))

(* Where the lock bit is a constructor (the locking mound's [Locked
   { was }] block), a pattern on it re-validates the read it matches,
   as a [locked] field read does: both acquisition CASes of the spin —
   the plain one and the lease revocation — compare a read the match
   has just tested. The same CAS without the match, or behind a
   pattern on another constructor, still compares a bare read. *)
let test_lock_constructor_revalidates () =
  let aba body =
    with_rule "aba-risk"
      (scan "lib/core/x.ml"
         ("let restamp slot fresh = R.Atomic.set slot fresh\n\n\
           let rec acquire slot =\n\
          \  let n = R.Atomic.get slot in\n" ^ body))
  in
  let retry = "(R.cpu_relax (); acquire slot)" in
  let cas = "if R.Atomic.compare_and_set slot n mine then mine else " ^ retry in
  check_count "a pattern on the lock constructor re-validates" 0
    (aba
       (Printf.sprintf
          "  match n with\n\
          \  | Locked { was } ->\n\
          \      let mine = Locked { was } in\n\
          \      %s\n\
          \  | Empty | Node _ ->\n\
          \      let mine = Locked { was = n } in\n\
          \      %s\n"
          cas cas));
  check_count "a bare read is still flagged" 1
    (aba (Printf.sprintf "  let mine = Locked { was = n } in\n  %s\n" cas));
  check_count "a pattern on another constructor does not" 1
    (aba
       (Printf.sprintf
          "  match n with\n\
          \  | Node _ -> %s\n\
          \  | _ ->\n\
          \      let mine = Locked { was = n } in\n\
          \      %s\n"
          retry cas))

(* ---- node records as constructor literals ------------------------------ *)

(* The lock-free mound publishes [Node { n with dirty = false; ... }]:
   an inline record under a constructor, or a [match] of such literals
   when the node may be empty. Each shape-keyed recognizer must see the
   record through both. *)

let test_completion_through_constructor () =
  let settle fresh =
    "let rec settle q =\n\
    \  let cur = M.get q in\n\
    \  match cur with\n\
    \  | Empty _ -> ()\n\
    \  | Node n -> if M.cas q cur " ^ fresh ^ " then () else settle q\n"
  in
  check_count "a clean Node literal helps" 0
    (with_rule "static-retry"
       (scan "lib/core/x.ml"
          (settle "(Node { n with dirty = false; seq = n.seq + 1 })")));
  check_count "a dirty Node literal does not" 1
    (with_rule "static-retry"
       (scan "lib/core/x.ml"
          (settle "(Node { n with dirty = true; seq = n.seq + 1 })")));
  let arms =
    "let rec settle q =\n\
    \  let cur = M.get q in\n\
    \  if\n\
    \    M.cas q cur\n\
    \      (match cur with\n\
    \      | Empty e -> Empty { dirty = false; seq = e.seq + 1 }\n\
    \      | Node n -> Node { n with dirty = false; seq = n.seq + 1 })\n\
    \  then ()\n\
    \  else settle q\n"
  in
  check_count "a match of clean literals helps" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" arms))

(* A constructor-shaped [locked = false] release built from the
   location's own read is no lost update (the bare record is in
   [test_atomicity]); the same store keeping the lock is one. *)
let test_release_through_constructor () =
  let store fresh =
    "let unlock slot =\n\
    \  let cur = R.Atomic.get slot in\n\
    \  R.Atomic.set slot " ^ fresh ^ "\n"
  in
  check_count "a constructor-shaped release is no lost update" 0
    (with_rule "atomicity"
       (scan "lib/core/x.ml" (store "(Lk { cur with locked = false })")));
  check_count "the same store keeping the lock is" 1
    (with_rule "atomicity"
       (scan "lib/core/x.ml" (store "(Lk { cur with locked = true })")))

(* A release that re-installs what a held block replaced ([match cur
   with Locked { was } -> was], or a record built from it) is no lost
   update either; the block kept in place, or a fresh one, is. *)
let test_release_of_held_block () =
  let store fresh =
    "let unlock slot =\n\
    \  let cur = R.Atomic.get slot in\n\
    \  R.Atomic.set slot (match cur with " ^ fresh ^ " | _ -> assert false)\n"
  in
  let lost fresh = with_rule "atomicity" (scan "lib/core/x.ml" (store fresh)) in
  check_count "the replaced record is a release" 0
    (lost "Locked { was } -> was");
  check_count "a record built from it is a release" 0
    (lost "Locked { was = Node n } -> Node { n with hd = 0 }");
  check_count "a fresh block keeps the lock" 1
    (lost "Locked { was } -> Locked { was }");
  check_count "a pattern on another constructor is no release" 1
    (lost "Node n -> Node { n with hd = 0 }")

let test_stamp_through_constructor () =
  let publish fresh =
    "let recycle q = R.Atomic.set q None\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if not (R.Atomic.compare_and_set q cur " ^ fresh ^ ") then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "a stamped Node literal silences" 0
    (with_rule "aba-risk"
       (scan "lib/core/x.ml" (publish "(Node { hd = v; seq = stamp cur + 1 })")));
  check_count "an unstamped Node literal is flagged" 1
    (with_rule "aba-risk"
       (scan "lib/core/x.ml" (publish "(Node { hd = v; seq = 0 })")))

(* A match on an open type ends in a raising arm ([| _ -> assert
   false]), which produces no value: a match of stamped literals closed
   by one is still a stamped fresh record. A wildcard arm that returns a
   value is no literal, so the same CAS is then flagged. *)
let test_raising_arm_produces_nothing () =
  let settle last_arm =
    "let recycle q = R.Atomic.set q None\n\n\
     let rec settle q =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if\n\
    \    R.Atomic.compare_and_set q cur\n\
    \      (match cur with\n\
    \      | Empty e -> Empty { dirty = false; seq = e.seq + 1 }\n\
    \      | Node n -> Node { n with dirty = false; seq = n.seq + 1 }\n\
    \      | " ^ last_arm ^ ")\n\
    \  then ()\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    settle q\n\
    \  end\n"
  in
  check_count "assert false arm ignored" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" (settle "_ -> assert false")));
  check_count "raise arm ignored" 0
    (with_rule "aba-risk"
       (scan "lib/core/x.ml" (settle "_ -> invalid_arg \"settle\"")));
  check_count "a value-returning wildcard is no literal" 1
    (with_rule "aba-risk" (scan "lib/core/x.ml" (settle "other -> other")))

(* [inplace-publish] marks the field it writes through mutable where the
   file declares it, also in the inline record of an extension
   constructor: the lock-free mound's nodes are constructors of the
   {!Mcas} cell state. *)
let test_inplace_marks_extension_field () =
  let src =
    {|
type _ M.state +=
  | Empty of { dirty : bool; seq : int }
  | Node of { hd : int; tl : int list; dirty : bool; seq : int }

let rec settle slot =
  let cur = M.get slot in
  if
    M.cas slot cur
      (match cur with
      | Empty e -> Empty { dirty = false; seq = e.seq + 1 }
      | Node n -> Node { n with dirty = false; seq = n.seq + 1 }
      | _ -> assert false)
  then ()
  else settle slot
|}
  in
  match
    Analysis.Mutate.mutants ~ops:[ "inplace-publish" ]
      [ ("lib/core/node.ml", src) ]
  with
  | [ m ] ->
      Alcotest.(check bool)
        "the extension's field marked mutable" true
        (Analysis.Summary.contains_sub m.m_src "mutable dirty")
  | l -> Alcotest.failf "inplace-publish: %d sites, expected 1" (List.length l)

(* [mutable-atomic] and [mutabilize] read the inline records of the
   constructors a file publishes through a cell: a variant stored in an
   [Atomic.t] (the locking mound's [Empty]/[Node] records), and the
   [type _ M.state += ...] constructors of a file that names [Cell.t]
   (the lock-free mound's). Each field of each such record is one
   [mutabilize] site; a [mutable] field is a [mutable-atomic] finding. *)
let inline_record_rules ~decls ~publish =
  let mutabilize =
    Analysis.Mutate.mutants ~ops:[ "mutabilize" ]
      [ ("lib/core/node.ml", decls ^ publish) ]
  in
  Alcotest.(check int) "one mutabilize site per inline field" 6
    (List.length mutabilize);
  let flagged src =
    with_rule "mutable-atomic" (scan "lib/core/node.ml" src)
  in
  check_count "every field immutable: no finding" 0 (flagged (decls ^ publish));
  (* the first inline record's first field made mutable *)
  let i = String.index decls '{' + 2 in
  let mutated =
    String.sub decls 0 i ^ "mutable " ^ String.sub decls i (String.length decls - i)
  in
  check_count "a mutable inline field is flagged" 1 (flagged (mutated ^ publish));
  check_count "unpublished, it is not" 0 (flagged mutated)

let test_variant_inline_records () =
  inline_record_rules
    ~decls:
      "type lnode =\n\
      \  | Empty of { locked : bool; seq : int }\n\
      \  | Node of { hd : int; tl : int list; locked : bool; seq : int }\n\n"
    ~publish:"type t = { slots : lnode R.Atomic.t array }\n"

let test_extension_inline_records () =
  inline_record_rules
    ~decls:
      "type _ M.state +=\n\
      \  | Empty of { dirty : bool; seq : int }\n\
      \  | Node of { hd : int; tl : int list; dirty : bool; seq : int }\n\n"
    ~publish:"type t = { tree : int Cell.t array }\n"

(* A [match] arm built from what its pattern bound is computed from the
   scrutinee: a plain store of it is the lost update. *)
let test_match_arm_provenance () =
  let src =
    "let clean q =\n\
    \  let cur = R.Atomic.get q in\n\
    \  R.Atomic.set q\n\
    \    (match cur with\n\
    \    | Empty e -> Empty { e with dirty = false }\n\
    \    | Node n -> Node { n with dirty = false })\n"
  in
  check_count "store of a rebuilt read flagged" 1
    (with_rule "atomicity" (scan "lib/core/x.ml" src))

(* ---- atomicity --------------------------------------------------------- *)

let test_atomicity () =
  let lost =
    "let bump q =\n\
    \  let n = R.Atomic.get q in\n\
    \  R.Atomic.set q (n + 1)\n"
  in
  check_count "get-compute-set flagged" 1
    (with_rule "atomicity" (scan "lib/core/x.ml" lost));
  (* the primitive RMW linearizes the same update *)
  let rmw = "let bump q = ignore (R.Atomic.fetch_and_add q 1)\n" in
  check_count "fetch_and_add fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" rmw));
  (* storing a value unrelated to the location's own read is a plain
     overwrite, not a lost update *)
  let overwrite =
    "let reset q v =\n\
    \  let n = R.Atomic.get other in\n\
    \  ignore n;\n\
    \  R.Atomic.set q v\n"
  in
  check_count "unrelated store fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" overwrite));
  (* the mound's own unlock idiom is release-shaped and exempt *)
  let release =
    "let unlock s =\n\
    \  let cur = R.Atomic.get s in\n\
    \  R.Atomic.set s { cur with locked = false }\n"
  in
  check_count "lock release fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" release))

let test_atomicity_interprocedural () =
  (* the plain set lives in a callee; the caller hands it the location
     and a value computed from that location's read — the lost update
     spans the call and only the call graph can see it *)
  let split =
    "let store q v = R.Atomic.set q v\n\n\
     let bump q =\n\
    \  let n = R.Atomic.get q in\n\
    \  store q (n + 1)\n"
  in
  let fs = scan "lib/core/x.ml" split in
  let at = with_rule "atomicity" fs in
  (* the callee's own set stores an opaque parameter (not flagged); the
     call site is *)
  check_count "lost update through a callee flagged once" 1 at;
  Alcotest.(check bool) "finding names the callee" true
    (Analysis.Summary.contains_sub (List.hd at).Analysis.msg "store");
  (* same callee, but the caller passes a value unrelated to the
     location it hands over: nothing lost *)
  let unrelated =
    "let store q v = R.Atomic.set q v\n\n\
     let seed q v =\n\
    \  store q (v * 2)\n"
  in
  check_count "unrelated argument fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" unrelated))

(* ---- layout ------------------------------------------------------------ *)

(* Two RMW-performing operations touching the record's hot fields: the
   contention precondition for a false-sharing flag. *)
let layout_ops =
  "let push t v =\n\
  \  ignore (R.Atomic.fetch_and_add t.word 1);\n\
  \  t.h.a <- v;\n\
  \  t.h.b <- t.h.b + 1\n\n\
   let pop t =\n\
  \  ignore (R.Atomic.fetch_and_add t.word 1);\n\
  \  t.h.b <- t.h.b + 1\n"

let test_layout () =
  let unpadded =
    "type hot = { mutable a : int; mutable b : int }\n\n" ^ layout_ops
  in
  check_count "adjacent hot fields under contention flagged" 1
    (with_rule "layout" (scan "lib/core/x.ml" unpadded));
  let padded =
    "type hot = { mutable a : int; pad : int array; mutable b : int }\n\n"
    ^ layout_ops
  in
  check_count "pad block between them silences" 0
    (with_rule "layout" (scan "lib/core/x.ml" padded));
  (* one toucher means no cross-core ping-pong: the reasoned-waiver
     story for single-owner records, here silent by construction *)
  let single_toucher =
    "type hot = { mutable a : int; mutable b : int }\n\n\
     let push t v =\n\
    \  ignore (R.Atomic.fetch_and_add t.word 1);\n\
    \  t.h.a <- v;\n\
    \  t.h.b <- t.h.b + 1\n"
  in
  check_count "single contended toucher fine" 0
    (with_rule "layout" (scan "lib/core/x.ml" single_toucher));
  (* touchers that never CAS/RMW are readers/sequential setup: silent *)
  let cold_touchers =
    "type hot = { mutable a : int; mutable b : int }\n\n\
     let init t v =\n\
    \  t.h.a <- v;\n\
    \  t.h.b <- v\n\n\
     let drain t =\n\
    \  t.h.a <- 0;\n\
    \  t.h.b <- 0\n"
  in
  check_count "no contention source fine" 0
    (with_rule "layout" (scan "lib/core/x.ml" cold_touchers))

(* [layout] walks the inline records of variant constructors too: two
   adjacent atomics of a [Node] record, each CASed by its own function. *)
let test_layout_inline_record () =
  let src =
    "type node = Leaf | Node of { a : int R.Atomic.t; b : int R.Atomic.t }\n\n\
     let push = function\n\
    \  | Node n -> ignore (R.Atomic.compare_and_set n.a 0 1)\n\
    \  | Leaf -> ()\n\n\
     let pop = function\n\
    \  | Node n -> ignore (R.Atomic.compare_and_set n.b 0 1)\n\
    \  | Leaf -> ()\n"
  in
  Alcotest.(check (list string))
    "the inline record's adjacent atomics flagged" [ "node.Node" ]
    (List.map
       (fun f -> List.nth (String.split_on_char ' ' f.Analysis.msg) 1)
       (with_rule "layout" (scan "lib/core/x.ml" src)))

(* ---- callgraph resolution through local module aliases ----------------- *)

let test_letmodule_alias_resolution () =
  (* a local [module A = Atomic] must still count as CAS-providing:
     the bare loop below is only a retry loop if A.compare_and_set is
     recognized through the alias *)
  let bare =
    "let rec push q v =\n\
    \  let module A = Atomic in\n\
    \  if A.compare_and_set q 0 v then () else push q v\n"
  in
  check_count "CAS through a local alias of the substrate seen" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" bare));
  (* a helper reached through a local alias of a nested module must
     resolve — the loop helps, so no finding *)
  let kept =
    "module Helpers = struct\n\
    \  let finish q =\n\
    \    let cur = M.get q in\n\
    \    ignore (M.cas q cur { list = cur.list; dirty = false })\n\
     end\n\n\
     let rec pull q =\n\
    \  let module H = Helpers in\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = cur.list; dirty = cur.dirty } then ()\n\
    \  else begin\n\
    \    H.finish q;\n\
    \    pull q\n\
    \  end\n"
  in
  check_count "helper through a local module alias silences" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" kept));
  (* the twin that binds the alias but never calls the helper keeps
     the finding: resolution must not bleed into mere mention *)
  let dropped =
    "module Helpers = struct\n\
    \  let finish q =\n\
    \    let cur = M.get q in\n\
    \    ignore (M.cas q cur { list = cur.list; dirty = false })\n\
     end\n\n\
     let rec pull q =\n\
    \  let module H = Helpers in\n\
    \  ignore H.finish;\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = cur.list; dirty = cur.dirty } then ()\n\
    \  else pull q\n"
  in
  check_count "uncalled aliased helper still flagged" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" dropped))

(* ---- waiver interaction ------------------------------------------------ *)

let test_waivers_cover_static_findings () =
  let bare body = "let rec push q v =\n" ^ body in
  ignore bare;
  let flagged =
    "let rec push q v =\n\
    \  if M.cas q 0 v then () else push q v\n"
  in
  check_count "unwaived" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" flagged));
  let waived =
    "(* lint: allow — fixture loop, contention impossible here *)\n"
    ^ flagged
  in
  check_count "reasoned waiver silences" 0 (scan "lib/core/x.ml" waived);
  (* a reasonless waiver is itself a finding, even over a static rule *)
  let reasonless = "(* lint: allow *)\n" ^ flagged in
  check_count "reasonless waiver flagged" 1
    (with_rule "waiver" (scan "lib/core/x.ml" reasonless));
  (* a static finding keeps a waiver live: no stale-waiver complaint *)
  let live =
    "(* lint: allow — fixture loop, contention impossible here *)\n"
    ^ "let rec push q v =\n\
      \  if M.cas q 0 v then () else push q v\n"
  in
  check_count "waiver over static finding not stale" 0
    (with_rule "waiver" (scan "lib/core/x.ml" live))

(* ---- parse errors ------------------------------------------------------ *)

let test_parse_error_reported () =
  let fs = scan "lib/core/x.ml" "let x = (\n" in
  Alcotest.(check bool) "parse finding" true
    (with_rule "parse" fs <> [])

(* ---- the seeded mutants ------------------------------------------------ *)

let mutant_src = "mutant_static.ml"

let scan_mutant () =
  if Sys.file_exists mutant_src then Some (Analysis.scan_file mutant_src)
  else None

let test_mutant_post_publish_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      check_count "stale publish" 1 (with_rule "stale-publish" fs);
      (* the republished root, plus [Published_record_write]'s in-place
         bump — the same discipline broken from the other direction *)
      check_count "post-publish mutation" 2
        (with_rule "post-publish-mutation" fs)

let test_mutant_aliased_helper_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let sr = with_rule "static-retry" fs in
      check_count "exactly the dropped-alias loop" 1 sr;
      let msg = (List.hd sr).Analysis.msg in
      Alcotest.(check bool) "names extract_spin" true
        (let sub = "Aliased_helper_dropped.extract_spin" in
         let rec has i =
           i + String.length sub <= String.length msg
           && (String.sub msg i (String.length sub) = sub || has (i + 1))
         in
         has 0)

let contains = Analysis.Summary.contains_sub

let test_mutant_unstamped_publish_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let ar = with_rule "aba-risk" fs in
      (* the unstamped publish loop, plus the post-publish mutant's
         republishing CAS (root is recycled by its insert) — the
         stamped twin and every seq-disciplined loop stay silent *)
      check_count "exactly the two ABA-prone CAS sites" 2 ar;
      Alcotest.(check bool) "one names the recycled slot" true
        (List.exists (fun f -> contains f.Analysis.msg "slot") ar);
      Alcotest.(check bool) "one names the republished root" true
        (List.exists (fun f -> contains f.Analysis.msg "root") ar)

let test_mutant_lost_update_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let at = with_rule "atomicity" fs in
      check_count "both pq sets and the counter bump" 3 at;
      check_count "two on the sorted-list cell" 2
        (List.filter (fun f -> contains f.Analysis.msg "cell") at);
      check_count "one on the drifting counter" 1
        (List.filter (fun f -> contains f.Analysis.msg "hits") at)

let test_mutant_unpadded_top_row_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let ly = with_rule "layout" fs in
      check_count "exactly the unpadded record" 1 ly;
      Alcotest.(check bool) "names the adjacent hot pair" true
        (let msg = (List.hd ly).Analysis.msg in
         contains msg "top_val" && contains msg "top_ver")

let test_mutant_published_record_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      (* the claim bumps [s.used] in place, [s] being the record it
         read from the atomic cell *)
      Alcotest.(check bool) "the in-place bump is a post-publish mutation"
        true
        (List.exists
           (fun f -> contains f.Analysis.msg "field of s,")
           (with_rule "post-publish-mutation" fs))

(* ---- waivers over the new rules ---------------------------------------- *)

let test_waivers_cover_new_rules () =
  let lost =
    "let bump q =\n\
    \  let n = R.Atomic.get q in\n\
    \  (* lint: allow — single-writer counter, interference impossible *)\n\
    \  R.Atomic.set q (n + 1)\n"
  in
  check_count "reasoned waiver silences atomicity" 0
    (scan "lib/core/x.ml" lost);
  let unpadded =
    "(* lint: allow — diagnostic-only record, never on the hot path *)\n\
     type hot = { mutable a : int; mutable b : int }\n\n"
    ^ layout_ops
  in
  check_count "reasoned waiver silences layout" 0
    (scan "lib/core/x.ml" unpadded);
  (* the waiver is live (covers a real finding): no staleness complaint
     — and without the finding underneath, the same waiver is stale *)
  let stale =
    "let bump q =\n\
    \  (* lint: allow — single-writer counter, interference impossible *)\n\
    \  ignore (R.Atomic.fetch_and_add q 1)\n"
  in
  check_count "waiver with nothing under it is stale" 1
    (with_rule "waiver" (scan "lib/core/x.ml" stale))

(* Co-located findings of two rules share one waiver: republishing a
   shared read and bumping a [Stdlib.Atomic] counter on one line are a
   cross-module [stale-publish] and a per-file [boundary], and a single
   reasoned waiver above them silences both and stays live. A
   reasonless one is a finding. *)
let test_waiver_covers_colocated () =
  let mark waiver =
    "let mark q hits =\n\
    \  let root = M.get q in\n"
    ^ waiver
    ^ "  if M.cas q root root then Stdlib.Atomic.incr hits\n"
  in
  Alcotest.(check (list string)) "unwaived: one finding per rule"
    [ "boundary"; "stale-publish" ]
    (List.sort compare
       (List.map (fun f -> f.Analysis.rule) (scan "lib/core/x.ml" (mark ""))));
  check_count "one reasoned waiver silences both, not stale" 0
    (scan "lib/core/x.ml"
       (mark "  (* lint: allow — fixture: idempotent re-mark *)\n"));
  Alcotest.(check (list string)) "reasonless waiver flagged" [ "waiver" ]
    (List.map
       (fun f -> f.Analysis.rule)
       (scan "lib/core/x.ml" (mark "  (* lint: allow *)\n")))

(* ---- dynamic cross-checks on the same mutant code ---------------------- *)

let liveness_config =
  if Sys.getenv_opt "PROGRESS_FULL" = Some "1" then Liveness.default_config
  else Liveness.quick_config

let test_mutant_lock_inverted_deadlocks () =
  let p = Mutant_static.lock_inverted_static_program in
  let r = Liveness.certify ~config:liveness_config p in
  Alcotest.(check bool) "not deadlock-free" false r.Liveness.deadlock_free;
  match r.Liveness.fair_cycle with
  | None -> Alcotest.fail "expected a fair deadlock cycle"
  | Some c ->
      Alcotest.(check bool) "pure spin (no writes in pump)" false
        c.Liveness.pump_writes;
      Alcotest.(check bool) "replayable schedule" true
        (Liveness.check_cycle p c)

module C = Check

let dpor_config =
  {
    C.default_config with
    C.max_schedules =
      (if Sys.getenv_opt "DPOR_FULL" <> None then 2_000_000 else 50_000);
  }

let two_extracts =
  Harness.Dpor_exp.pq_program ~name:"two-extracts-post-publish"
    ~make:Mutant_static.post_publish_pq ~prepopulate:[ 1; 2 ] ~lin:true
    [ [ `Extract ]; [ `Extract ] ]

let test_mutant_post_publish_breaks_linearizability () =
  let r = C.explore ~config:dpor_config two_extracts in
  match r.C.counterexample with
  | Some { failure = C.Invariant msg; schedule; _ } ->
      let replay = C.run_schedule two_extracts schedule in
      Alcotest.(check bool) "replay reproduces the violation" true
        (replay.C.replay_failure = Some (C.Invariant msg))
  | Some { failure; _ } ->
      Alcotest.failf "expected an invariant violation, got %a" C.pp_failure
        failure
  | None ->
      Alcotest.fail "mutant survived: post-publish mutation not caught"

(* The atomicity rule's verdict on [Lost_update], cross-checked
   dynamically: the same code, driven by DPOR, double-delivers the
   minimum — the static lost-update finding is a real linearizability
   violation, not a style nit. The defect's plain get-then-set pair is
   itself an unordered write pair, so the race oracle fires on every
   interesting trace first; silencing it ([race_oracle = false]) lets
   the Lin verdict pronounce on the semantic damage. *)
let two_extracts_lost_update =
  Harness.Dpor_exp.pq_program ~name:"two-extracts-lost-update"
    ~make:Mutant_static.lost_update_pq ~prepopulate:[ 1; 2 ] ~lin:true
    [ [ `Extract ]; [ `Extract ] ]

let test_mutant_lost_update_breaks_linearizability () =
  (* the write-write race is real and detected when asked for... *)
  let r = C.explore ~config:dpor_config two_extracts_lost_update in
  (match r.C.counterexample with
  | Some { failure = C.Race _; _ } -> ()
  | Some { failure; _ } ->
      Alcotest.failf "expected a write-write race, got %a" C.pp_failure
        failure
  | None -> Alcotest.fail "mutant survived the race oracle");
  (* ...and past it, the lost update breaks linearizability: the same
     minimum is delivered to both extractions *)
  let config = { dpor_config with C.race_oracle = false } in
  let r = C.explore ~config two_extracts_lost_update in
  match r.C.counterexample with
  | Some { failure = C.Invariant msg; schedule; _ } ->
      let replay = C.run_schedule ~config two_extracts_lost_update schedule in
      Alcotest.(check bool) "replay reproduces the violation" true
        (replay.C.replay_failure = Some (C.Invariant msg))
  | Some { failure; _ } ->
      Alcotest.failf "expected an invariant violation, got %a" C.pp_failure
        failure
  | None -> Alcotest.fail "mutant survived: lost update not caught"

(* The spawn-counter defect — per-domain slots collapsed into one
   shared cell bumped with a plain get-then-set — on a tracked sim
   cell: an unordered write pair the DPOR race oracle must report. *)
let test_mutant_spawn_counter_races_dynamically () =
  let p = Mutant_static.spawn_counter_program in
  let r = C.explore ~config:dpor_config p in
  match r.C.counterexample with
  | Some { failure = C.Race race; schedule; _ } ->
      Alcotest.(check bool) "an unordered write pair" true
        (race.first.wrote && race.second.wrote);
      let replay = C.run_schedule p schedule in
      Alcotest.(check bool) "replay reproduces the race" true
        (match replay.C.replay_failure with
        | Some (C.Race _) -> true
        | _ -> false)
  | Some { failure; _ } ->
      Alcotest.failf "expected a write-write race, got %a" C.pp_failure
        failure
  | None -> Alcotest.fail "mutant survived the race oracle"

(* ---- the shipped tree -------------------------------------------------- *)

let test_shipped_tree_clean () =
  (* Belt and braces alongside the [@lint] alias, as in [test_lint]:
     source may live elsewhere in a sandbox; skip silently then. *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let fs = Analysis.scan_tree "lib" in
    List.iter (fun f -> Format.printf "%a@." Analysis.pp_finding f) fs;
    check_count "shipped lib/ clean under every rule" 0 fs
  end

let () =
  Alcotest.run "analysis"
    [
      ( "node literals",
        [
          Alcotest.test_case "completion through a constructor" `Quick
            test_completion_through_constructor;
          Alcotest.test_case "lock release through a constructor" `Quick
            test_release_through_constructor;
          Alcotest.test_case "release of a held block" `Quick
            test_release_of_held_block;
          Alcotest.test_case "stamp through a constructor" `Quick
            test_stamp_through_constructor;
          Alcotest.test_case "match arms derive from the scrutinee" `Quick
            test_match_arm_provenance;
          Alcotest.test_case "a raising arm produces no value" `Quick
            test_raising_arm_produces_nothing;
          Alcotest.test_case "extension constructor fields are declarations"
            `Quick test_inplace_marks_extension_field;
          Alcotest.test_case "a variant's inline records behind an Atomic.t"
            `Quick test_variant_inline_records;
          Alcotest.test_case "state extensions behind a Cell.t" `Quick
            test_extension_inline_records;
        ] );
      ( "publication",
        [
          Alcotest.test_case "stale publish" `Quick test_stale_publish;
          Alcotest.test_case "post-publish mutation" `Quick
            test_post_publish_mutation;
          Alcotest.test_case "publication through a wrapper" `Quick
            test_publish_through_wrapper;
          Alcotest.test_case "publication through a labelled wrapper" `Quick
            test_publish_through_labelled_wrapper;
          Alcotest.test_case "an array element is no shared read" `Quick
            test_array_element_is_no_shared_read;
          Alcotest.test_case "publication through a local helper" `Quick
            test_publish_through_local_helper;
          Alcotest.test_case "mutation after a wrapper publish" `Quick
            test_mutation_after_wrapper_publish;
        ] );
      ( "multiqueue-idioms",
        [
          Alcotest.test_case "cached-top publish" `Quick
            test_multiqueue_top_cache;
          Alcotest.test_case "versioned try-lock" `Quick test_version_bump;
        ] );
      ( "helping-v2",
        [
          Alcotest.test_case "static-retry" `Quick test_static_retry;
          Alcotest.test_case "blind CAS helps its own file only" `Quick
            test_blind_cas_helps_own_file;
          Alcotest.test_case "a parameter shadows a same-named function"
            `Quick test_param_shadows_function;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "aba-risk" `Quick test_aba_risk;
          Alcotest.test_case "aba-risk counts writers of its own file"
            `Quick test_aba_risk_writers_per_file;
          Alcotest.test_case "re-validation by pattern or accessor" `Quick
            test_revalidation_shapes;
          Alcotest.test_case "a lock constructor pattern re-validates" `Quick
            test_lock_constructor_revalidates;
          Alcotest.test_case "atomicity" `Quick test_atomicity;
          Alcotest.test_case "atomicity across calls" `Quick
            test_atomicity_interprocedural;
          Alcotest.test_case "layout" `Quick test_layout;
          Alcotest.test_case "layout over inline records" `Quick
            test_layout_inline_record;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "local module aliases resolve" `Quick
            test_letmodule_alias_resolution;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "static findings and waivers" `Quick
            test_waivers_cover_static_findings;
          Alcotest.test_case "waivers over the dataflow rules" `Quick
            test_waivers_cover_new_rules;
          Alcotest.test_case "one waiver covers co-located findings" `Quick
            test_waiver_covers_colocated;
          Alcotest.test_case "parse errors are findings" `Quick
            test_parse_error_reported;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "post-publish mutation flagged" `Quick
            test_mutant_post_publish_flagged;
          Alcotest.test_case "dropped aliased helper flagged" `Quick
            test_mutant_aliased_helper_flagged;
          Alcotest.test_case "unstamped publish flagged" `Quick
            test_mutant_unstamped_publish_flagged;
          Alcotest.test_case "lost update flagged" `Quick
            test_mutant_lost_update_flagged;
          Alcotest.test_case "unpadded top row flagged" `Quick
            test_mutant_unpadded_top_row_flagged;
          Alcotest.test_case "published record write flagged" `Quick
            test_mutant_published_record_flagged;
          Alcotest.test_case "lock inversion deadlocks under liveness"
            `Quick test_mutant_lock_inverted_deadlocks;
          Alcotest.test_case "post-publish mutation breaks linearizability"
            `Quick test_mutant_post_publish_breaks_linearizability;
          Alcotest.test_case "lost update breaks linearizability" `Quick
            test_mutant_lost_update_breaks_linearizability;
          Alcotest.test_case "spawn counter races under DPOR" `Quick
            test_mutant_spawn_counter_races_dynamically;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shipped tree clean" `Quick
            test_shipped_tree_clean;
        ] );
    ]
