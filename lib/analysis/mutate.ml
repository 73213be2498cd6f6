(** Parsetree-driven mutation engine over the concurrency protocols.

    Generates first-order mutants of the mound sources by locating
    protocol-relevant sites in the Parsetree and performing {e byte-range
    surgery on the original source} at those sites — never a re-print of
    the AST, so comments (and with them the waiver markers the analyses
    honour) survive mutation intact. Each operator in {!catalog} models
    one defect class the static suite claims to catch: demoting a CAS to
    a plain store, deleting a version stamp, dropping a backoff or a
    helping call, swapping a lock-acquisition pair, deleting a pad
    field, and so on — the same classes hand-seeded in
    [test/mutant_static.ml], here re-derived mechanically from the
    shipped sources.

    A mutant is {e valid} when the rewritten source still parses
    ({!Frontend.parse}); validity is checked at generation time, so
    every mutant handed to {!Killmatrix} is analyzable by every rule.
    Parsing is also the only compilation gate: a handful of operators
    (in-place publication on an immutable field, the [Stdlib.Atomic]
    demotion) produce sources the type checker would reject, which is
    fine for certifying {e analyzers} that run on parse trees — the
    caveat is documented in DESIGN.md §14. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Operator catalog                                                    *)
(* ------------------------------------------------------------------ *)

type op = {
  op_name : string;
  op_descr : string;
  op_rules : string list;
      (** static rules this operator is designed to trip; empty means
          the defect class is invisible to the static suite by design
          and the mutant is expected to survive into escalation *)
  op_twin : string option;
      (** name of the canned dynamic program ({!Harness.Mutation_exp})
          that demonstrates the defect class when the static union
          lets the mutant through *)
}

let catalog : op list =
  [
    {
      op_name = "cas-to-set";
      op_descr =
        "demote a compare-and-set to a plain store that assumes success";
      op_rules = [ "atomicity"; "stale-publish" ];
      op_twin = None;
    };
    {
      op_name = "demote-rmw";
      op_descr = "split fetch_and_add into a get-compute-set lost update";
      op_rules = [ "atomicity" ];
      op_twin = Some "size-drift";
    };
    {
      op_name = "drop-backoff";
      op_descr = "delete a cpu_relax/exponential backoff call site";
      op_rules = [ "static-retry" ];
      op_twin = None;
    };
    {
      op_name = "drop-deadline";
      op_descr = "replace a deadline-expiry check with false (spin forever)";
      op_rules = [];
      op_twin = None;
    };
    {
      op_name = "drop-help";
      op_descr =
        "delete every helping call (moundify/complete) from a retry loop";
      op_rules = [ "static-retry" ];
      op_twin = None;
    };
    {
      op_name = "drop-stamp";
      op_descr =
        "drop the version discipline: freeze seq/version stamps and delete \
         the protocol-bit re-validation reads before the CAS";
      op_rules = [ "aba-risk" ];
      op_twin = None;
    };
    {
      op_name = "drop-completion";
      op_descr =
        "flip a completing dirty=false store to true / keep a release's \
         node locked";
      op_rules = [ "static-retry" ];
      op_twin = None;
    };
    {
      op_name = "stale-republish";
      op_descr = "CAS back the very value read from the shared structure";
      op_rules = [ "stale-publish" ];
      op_twin = None;
    };
    {
      op_name = "inplace-publish";
      op_descr =
        "republish the shared read and mutate its field in place \
         (fresh-copy discipline deleted)";
      op_rules = [ "stale-publish"; "post-publish-mutation" ];
      op_twin = None;
    };
    {
      op_name = "swap-lock-order";
      op_descr = "swap an adjacent pair of lock acquisitions";
      op_rules = [];
      op_twin = Some "lock-inversion-deadlock";
    };
    {
      op_name = "drop-unlock";
      op_descr = "delete a lock-release call site";
      op_rules = [];
      op_twin = None;
    };
    {
      op_name = "drop-pad";
      op_descr = "delete a pad field from a record type and its literals";
      op_rules = [ "layout" ];
      op_twin = None;
    };
    {
      op_name = "demote-atomic-get";
      op_descr = "bypass the Runtime functor with a direct Stdlib.Atomic.get";
      op_rules = [ "boundary" ];
      op_twin = None;
    };
    {
      op_name = "alloc-in-retry";
      op_descr = "allocate a fresh array inside a CAS retry loop";
      op_rules = [ "alloc-in-retry" ];
      op_twin = None;
    };
    {
      op_name = "mutabilize";
      op_descr =
        "mark a field of a record published through an Atomic.t mutable";
      op_rules = [ "mutable-atomic" ];
      op_twin = None;
    };
    {
      op_name = "drop-waiver";
      op_descr =
        "delete a lint: allow marker: the waived finding must resurface";
      op_rules = [];
      op_twin = None;
    };
    {
      op_name = "drop-top-refresh";
      op_descr = "delete the cached-top refresh from the unlock path";
      op_rules = [];
      op_twin = Some "stale-top";
    };
  ]

let op_names = List.map (fun o -> o.op_name) catalog
let find_op name = List.find_opt (fun o -> o.op_name = name) catalog

(** Union of every operator's target rules — the rule universe the kill
    matrix is judged over (hygiene rules and rules with no reachable
    site in the shipped tree are out of scope by construction). *)
let target_rules =
  List.concat_map (fun o -> o.op_rules) catalog |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Sites, edits, mutants                                               *)
(* ------------------------------------------------------------------ *)

type edit = { e_start : int; e_stop : int; e_text : string }

type site = { s_line : int; s_note : string; s_edits : edit list }

type mutant = {
  m_id : string;
  m_op : string;
  m_file : string;
  m_line : int;
  m_note : string;
  m_src : string;  (** the full mutated source *)
}

let span_of_loc (loc : Location.t) =
  (loc.loc_start.pos_cnum, loc.loc_end.pos_cnum)

let sub src (a, b) = String.sub src a (b - a)
let expr_src src e = sub src (span_of_loc e.pexp_loc)
let line_of e = Frontend.line_of_loc e.pexp_loc
let replace e text =
  let a, b = span_of_loc e.pexp_loc in
  { e_start = a; e_stop = b; e_text = text }

(* Apply edits back to front so earlier offsets stay valid; reject
   overlapping spans (a malformed collector, not a user error). *)
let apply_edits src (edits : edit list) : string option =
  let sorted =
    List.sort (fun a b -> compare b.e_start a.e_start) edits
  in
  let ok =
    let rec disjoint = function
      | a :: (b :: _ as rest) -> b.e_stop <= a.e_start && disjoint rest
      | _ -> true
    in
    disjoint sorted
  in
  if not ok then None
  else
    Some
      (List.fold_left
         (fun acc e ->
           String.sub acc 0 e.e_start ^ e.e_text
           ^ String.sub acc e.e_stop (String.length acc - e.e_stop))
         src sorted)

(* Extend a deletion span through the separator that kept the deleted
   element apart from its neighbours: the following [;] if there is
   one, else the preceding [;] (last element of a record). *)
let span_with_separator src (a, b) =
  let n = String.length src in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' in
  if b > a && src.[b - 1] = ';' then (a, b)
    (* the parser's own span already swallowed the trailing separator
       (label_declaration locs do); extending would eat a neighbour's *)
  else
  let j = ref b in
  while !j < n && is_ws src.[!j] do incr j done;
  if !j < n && src.[!j] = ';' then (a, !j + 1)
  else begin
    let i = ref (a - 1) in
    while !i >= 0 && is_ws src.[!i] do decr i done;
    if !i >= 0 && src.[!i] = ';' then (!i, b) else (a, b)
  end

(* ------------------------------------------------------------------ *)
(* Recognizers                                                         *)
(* ------------------------------------------------------------------ *)

let last_seg segs = List.nth segs (List.length segs - 1)

(* The path an application's head names, [["R"; "Atomic"; "get"]], and
   the module it names it in, ["R.Atomic"]. *)
let head_path e =
  match e.pexp_desc with
  | Pexp_apply (head, _) ->
      Option.value (Summary.flatten_ident head) ~default:[]
  | _ -> []

let head_prefix e =
  let segs = head_path e in
  String.concat "." (List.filteri (fun i _ -> i < List.length segs - 1) segs)

(** [M.cas loc expected fresh] / [R.Atomic.compare_and_set loc old new]:
    a one-location CAS ({!Summary.primitive}), with its head's module. *)
let cas_app e =
  match Summary.primitive e with
  | Some (Cas (op, [ l; x; f ])) when Summary.cas_legs op = [ (0, 1, 2) ] ->
      Some (head_prefix e, l, x, f)
  | _ -> None

(* Shapes are keyed on names regardless of case: [Backoff.Make] and
   [backoff] both carry "backoff". *)
let seg_contains seg = Summary.contains_sub (String.lowercase_ascii seg)

let app_with_head_pred e pred =
  match e.pexp_desc with
  | Pexp_apply (head, args) -> (
      match Summary.flatten_ident head with
      | Some segs when pred segs -> Some (head, args)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* AST walks                                                           *)
(* ------------------------------------------------------------------ *)

let on_exprs (p : Frontend.parsed) (f : expression -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it p.p_ast

(** Visit every expression under one subtree (a single function body,
    unlike {!on_exprs} which walks the whole file). *)
let on_sub_exprs (body : expression) (f : expression -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body

(** Visit every module-level [let rec ... and ...] group as its list of
    (name, bound expression) pairs; a non-recursive binding is a group
    of one. *)
let on_binding_groups (p : Frontend.parsed)
    (f : (string * expression) list -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (rf, vbs) ->
              let named =
                List.filter_map
                  (fun vb ->
                    Option.map (fun n -> (n, vb.pvb_expr))
                      (Summary.pat_var vb.pvb_pat))
                  vbs
              in
              if rf = Asttypes.Recursive then f named
              else List.iter (fun b -> f [ b ]) named
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it p.p_ast

(** Visit every module-level value binding as (name, bound expression) —
    the per-function granularity the compound operators mutate at. *)
let on_bindings p (f : string -> expression -> unit) =
  on_binding_groups p (List.iter (fun (name, body) -> f name body))

(* ------------------------------------------------------------------ *)
(* Per-operator site collectors                                        *)
(* ------------------------------------------------------------------ *)

let sites_cas_to_set p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match cas_app e with
      | Some (prefix, l, _x, f) ->
          out :=
            {
              s_line = line_of e;
              s_note = "CAS demoted to " ^ prefix ^ ".set";
              s_edits =
                [
                  replace e
                    (Printf.sprintf "(%s.set (%s) (%s); true)" prefix
                       (expr_src src l) (expr_src src f));
                ];
            }
            :: !out
      | None -> ());
  !out

let sites_demote_rmw p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match Summary.primitive e with
      | Some (Rmw ("fetch_and_add", [ l; d ])) ->
          let prefix = head_prefix e in
          out :=
            {
              s_line = line_of e;
              s_note = "fetch_and_add split into get-compute-set";
              s_edits =
                [
                  replace e
                    (Printf.sprintf
                       "(let __n = %s.get (%s) in %s.set (%s) (__n + (%s)); \
                        __n)"
                       prefix (expr_src src l) prefix (expr_src src l)
                       (expr_src src d));
                ];
            }
            :: !out
      | _ -> ());
  !out

let sites_drop_backoff p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match
        app_with_head_pred e (fun segs ->
            let s = last_seg segs in
            s = "cpu_relax" || s = "exponential" || s = "once"
            || seg_contains s "backoff")
      with
      | Some _ ->
          out :=
            {
              s_line = line_of e;
              s_note = "backoff call deleted";
              s_edits = [ replace e "()" ];
            }
            :: !out
      | None -> ());
  !out

let sites_drop_deadline p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match app_with_head_pred e (fun segs -> last_seg segs = "expired") with
      | Some _ ->
          out :=
            {
              s_line = line_of e;
              s_note = "deadline-expiry check replaced with false";
              s_edits = [ replace e "false" ];
            }
            :: !out
      | None -> ());
  !out

(* One compound mutant per self-recursive retry loop: delete {e every}
   helping call it makes (a single dropped site leaves the loop's
   transitive [helps] intact through the others). Loops that also back
   off are skipped — static-retry cannot fire on them, the drop is
   invisible. A loop backs off when any function of its [let rec ...
   and ...] group does: a spin whose [cpu_relax] sits in its partner
   miss-path function reaches the backoff transitively, which is how
   static-retry reads it. *)
let sites_drop_help p src =
  let out = ref [] in
  let backs_off (_, body) =
    let bsrc = expr_src src (snd (Summary.fn_shape body)) in
    seg_contains bsrc "cpu_relax" || seg_contains bsrc "backoff"
  in
  on_binding_groups p (fun group ->
      if not (List.exists backs_off group) then
        List.iter
          (fun (name, body) ->
            let b = snd (Summary.fn_shape body) in
            let self_rec = ref false in
            let helps = ref [] in
            let line = ref max_int in
            on_sub_exprs b (fun e ->
                match
                  app_with_head_pred e (fun segs -> last_seg segs = name)
                with
                | Some _ -> self_rec := true
                | None -> (
                    match
                      app_with_head_pred e (fun segs ->
                          let s = last_seg segs in
                          s <> name
                          && (seg_contains s "moundify"
                             || seg_contains s "help"
                             || seg_contains s "complete"))
                    with
                    | Some _ ->
                        helps := replace e "()" :: !helps;
                        line := min !line (line_of e)
                    | None -> ()));
            if !self_rec && !helps <> [] then
              out :=
                {
                  s_line = !line;
                  s_note =
                    Printf.sprintf "all %d helping calls in %s deleted"
                      (List.length !helps) name;
                  s_edits = !helps;
                }
                :: !out)
          group);
  !out

(* The file's own call graph, and the summary of a module-level
   binding's body: how an operator judges a call by its callee, as the
   rules do. *)
let file_graph p =
  let cg = Callgraph.build (Summary.of_parsed p) in
  let fn_of body =
    Array.to_list (Callgraph.fns cg)
    |> List.find_opt (fun (f : Summary.fn) -> f.fbody == body)
  in
  (cg, fn_of)

(* The releases ({!Summary.is_release}) the application [e] hands over:
   its positional arguments that are one, or a CAS's fresh value. *)
let releases e =
  match (Summary.primitive e, e.pexp_desc) with
  | Some (Cas (op, args)), _ ->
      List.filter Summary.is_release (Summary.fresh_args op args)
  | _, Pexp_apply (_, args) ->
      List.filter Summary.is_release (Summary.nolabel_args args)
  | _ -> []

(* One compound mutant per function that CASes directly: every version
   stamp ({!Summary.stamps}) becomes the constant [0] and every branch
   condition reading a protocol bit ({!Summary.protocol_read}, or its
   negation) becomes [false] — the full version discipline deleted, the
   Unstamped_publish class re-derived in place. Both halves are needed:
   an unstamped fresh value alone stays invisible while the loop still
   re-validates [dirty]/[locked] before the CAS. *)
let sites_drop_stamp p _src =
  let cg, fn_of = file_graph p in
  let out = ref [] in
  on_bindings p (fun _name body ->
      let b = snd (Summary.fn_shape body) in
      let direct_cas = ref false in
      on_sub_exprs b (fun e ->
          match Summary.primitive e with
          | Some (Cas (op, _)) when Summary.cas_legs op <> [] ->
              direct_cas := true
          | _ -> ());
      if !direct_cas then begin
        let projects =
          match fn_of b with
          | Some f -> Callgraph.projects cg f
          | None -> fun _ -> []
        in
        let rec revalidates cond =
          match cond.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Lident "not"; _ }; _ },
                [ (Asttypes.Nolabel, a) ] ) ->
              revalidates a
          | _ -> Summary.protocol_read ~projects cond <> None
        in
        let stamps = ref [] in
        let revals = ref [] in
        let line = ref max_int in
        on_sub_exprs b (fun e ->
            match e.pexp_desc with
            | Pexp_record (fields, _) ->
                List.iter
                  (fun ((_, fe) as field) ->
                    if Summary.stamps field then begin
                      stamps := replace fe "0" :: !stamps;
                      line := min !line (line_of fe)
                    end)
                  fields
            | Pexp_ifthenelse (cond, _, _) when revalidates cond ->
                revals := replace cond "false" :: !revals
            | _ -> ());
        if !stamps <> [] then
          out :=
            {
              s_line = !line;
              s_note =
                Printf.sprintf
                  "version discipline dropped: %d stamps frozen, %d \
                   re-validation reads removed"
                  (List.length !stamps) (List.length !revals);
              s_edits = !stamps @ !revals;
            }
            :: !out
      end);
  !out

(* The [false] literals bound to [field] in the record values [e] may
   be ({!Summary.record_literals}). *)
let false_fields field e =
  List.concat_map
    (List.filter_map (fun ((lid : Longident.t Location.loc), fe) ->
         if Longident.last lid.txt = field && Summary.is_bool_lit false fe
         then Some fe
         else None))
    (Option.value (Summary.record_literals e) ~default:[])

(* Two shapes, matching the two mounds' completion protocols.

   Lock-free: per function, flip every [dirty = false] literal of a
   CAS-family fresh value ({!Summary.record_literals}: through a
   constructor and the arms of a [match]) to [true] — the function's
   completing CASes stop completing, so every retry loop reaching it
   loses its transitive [helps] and static-retry resurfaces. Per-field
   flips are useless here: one intact completing store keeps [helps]
   true.

   Locking: per function that hands a release over ({!releases}),
   replace every value it hands over that is read out of a held block
   ({!Summary.held_block}) with the block itself, one mutant per
   function — the node stays locked, the release never releases. No
   static rule sees it; a locking path that stops releasing is a
   liveness defect. *)
let sites_drop_completion p src =
  let out = ref [] in
  on_bindings p (fun name body ->
      let b = snd (Summary.fn_shape body) in
      let flips = ref [] in
      let released = ref [] in
      on_sub_exprs b (fun e ->
          (match Summary.primitive e with
          | Some (Cas (op, args)) ->
              flips :=
                !flips
                @ List.map
                    (fun fe -> (fe, "true"))
                    (List.concat_map (false_fields "dirty")
                       (Summary.fresh_args op args))
          | _ -> ());
          released :=
            !released
            @ List.filter_map
                (fun r ->
                  Option.map
                    (fun blk -> (r, expr_src src blk))
                    (Summary.held_block r))
                (releases e));
      let site note edits =
        if edits <> [] then
          out :=
            {
              s_line =
                List.fold_left
                  (fun l (fe, _) -> min l (line_of fe))
                  max_int edits;
              s_note = Printf.sprintf note (List.length edits) name;
              s_edits = List.map (fun (fe, text) -> replace fe text) edits;
            }
            :: !out
      in
      site "%d completing stores in %s no longer publish clean" !flips;
      site "%d releases in %s keep the node locked: never unlocks" !released);
  !out

let sites_stale_republish p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match cas_app e with
      | Some (_, _, x, f) when (match x.pexp_desc with
                                | Pexp_ident _ -> true
                                | _ -> false) ->
          out :=
            {
              s_line = line_of e;
              s_note = "fresh value replaced by the shared read itself";
              s_edits = [ replace f (expr_src src x) ];
            }
            :: !out
      | _ -> ());
  !out

let sites_inplace_publish p src =
  let out = ref [] in
  (* mutabilize the field we write through, when its declaration is in
     this file — the mutant then carries the full defect: a mutable
     field travelling through the shared cell, republished and edited
     in place *)
  let decl_edit fld =
    let found = ref None in
    let mark labels =
      List.iter
        (fun (l : label_declaration) ->
          if l.pld_name.txt = fld && l.pld_mutable = Asttypes.Immutable then
            let a, _ = span_of_loc l.pld_loc in
            found := Some { e_start = a; e_stop = a; e_text = "mutable " })
        labels
    in
    File_rules.on_record_fields p (fun ~ty:_ _ labels -> mark labels);
    !found
  in
  on_exprs p (fun e ->
      match cas_app e with
      | Some (prefix, l, x, f) -> (
          match (x.pexp_desc, Summary.record_literals f) with
          | Pexp_ident _, Some ((((lid : Longident.t Location.loc), _) :: _) :: _)
            ->
              let fld = last_seg (Frontend.flatten lid.txt) in
              let xs = expr_src src x in
              let body =
                Printf.sprintf
                  "(%s.cas (%s) %s %s && ((%s).%s <- (%s).%s; true))" prefix
                  (expr_src src l) xs xs xs fld xs fld
              in
              let edits =
                replace e body
                :: (match decl_edit fld with Some d -> [ d ] | None -> [])
              in
              out :=
                {
                  s_line = line_of e;
                  s_note =
                    Printf.sprintf
                      "republish and in-place write through .%s" fld;
                  s_edits = edits;
                }
                :: !out
          | _ -> ())
      | None -> ());
  !out

let lock_call e =
  match
    app_with_head_pred e (fun segs ->
        let s = last_seg segs in
        seg_contains s "set_lock" || s = "acquire")
  with
  | Some _ -> true
  | None -> false

let sites_swap_lock_order p src =
  let out = ref [] in
  let swap ~note e1 e2 =
    let s1 = span_of_loc e1.pexp_loc and s2 = span_of_loc e2.pexp_loc in
    out :=
      {
        s_line = line_of e1;
        s_note = note;
        s_edits =
          [
            { e_start = fst s1; e_stop = snd s1; e_text = sub src s2 };
            { e_start = fst s2; e_stop = snd s2; e_text = sub src s1 };
          ];
      }
      :: !out
  in
  let adjacent = swap ~note:"adjacent lock acquisitions swapped" in
  (* The hand-over-hand pair of the deadline-aware paths, where a failed
     parent acquisition must give up before the child is tried: either
     [match acquire parent with Some wp -> match acquire child] or
     [let wp = acquire parent in if wp == gave_up then ... else let wc =
     acquire child]. The swap inverts parent/child; no static rule sees
     the order, the lock-inversion liveness twin does. *)
  let guarded = swap ~note:"hand-over-hand acquisitions inverted" in
  on_exprs p (fun e ->
      match e.pexp_desc with
      | Pexp_sequence (e1, rest) when lock_call e1 ->
          let head2 =
            match rest.pexp_desc with Pexp_sequence (e2, _) -> e2 | _ -> rest
          in
          if lock_call head2 then adjacent e1 head2
      | Pexp_let (_, [ vb1 ], body) when lock_call vb1.pvb_expr -> (
          match body.pexp_desc with
          | Pexp_let (_, [ vb2 ], _) when lock_call vb2.pvb_expr ->
              adjacent vb1.pvb_expr vb2.pvb_expr
          | Pexp_ifthenelse
              (_, _, Some { pexp_desc = Pexp_let (_, [ vb2 ], _); _ })
            when lock_call vb2.pvb_expr ->
              guarded vb1.pvb_expr vb2.pvb_expr
          | _ -> ())
      | Pexp_match (s1, cases) when lock_call s1 ->
          List.iter
            (fun c ->
              match c.pc_rhs.pexp_desc with
              | Pexp_match (s2, _) when lock_call s2 -> guarded s1 s2
              | _ -> ())
            cases
      | _ -> ());
  !out

(* Delete one release call in a function that takes node locks through
   [set_lock_until]: the path then returns still holding the node. A
   release call hands a release over ({!releases}), or calls a function
   of the file whose body does ([unlock], which hands its record to
   [restamp]). No static rule sees the defect; it is a liveness one. *)
let sites_drop_unlock p _src =
  let cg, fn_of = file_graph p in
  let releasing =
    Array.map
      (fun (f : Summary.fn) ->
        let found = ref false in
        on_sub_exprs f.fbody (fun e -> if releases e <> [] then found := true);
        !found)
      (Callgraph.fns cg)
  in
  let out = ref [] in
  on_bindings p (fun _name body ->
      let b = snd (Summary.fn_shape body) in
      let tracked = ref false in
      on_sub_exprs b (fun e ->
          match
            app_with_head_pred e (fun segs -> last_seg segs = "set_lock_until")
          with
          | Some _ -> tracked := true
          | None -> ());
      match fn_of b with
      | Some f when !tracked ->
          on_sub_exprs b (fun e ->
              let release_call =
                match e.pexp_desc with
                | Pexp_apply (head, _) -> (
                    releases e <> []
                    ||
                    match
                      Option.bind (Summary.flatten_ident head)
                        (Callgraph.callee cg f)
                    with
                    | Some j -> releasing.(j)
                    | None -> false)
                | _ -> false
              in
              if release_call then
                out :=
                  {
                    s_line = line_of e;
                    s_note = "unlock call deleted";
                    s_edits = [ replace e "()" ];
                  }
                  :: !out)
      | _ -> ());
  !out

(* Every record the file declares ({!File_rules.on_record_fields}), and
   each of its fields that [layout] reads as a pad ({!Layout.is_pad}). *)
let sites_drop_pad p src =
  let out = ref [] in
  File_rules.on_record_fields p (fun ~ty:_ _ labels ->
      List.iter
        (fun (l : label_declaration) ->
          if Layout.is_pad l.pld_name.txt then begin
            let decl_span = span_with_separator src (span_of_loc l.pld_loc) in
            let literal_edits = ref [] in
            on_exprs p (fun e ->
                match e.pexp_desc with
                | Pexp_record (fields, _) ->
                    List.iter
                      (fun ((lid : Longident.t Location.loc), fe) ->
                        if Longident.last lid.txt = l.pld_name.txt then
                          let a, _ = span_of_loc lid.loc in
                          let _, b = span_of_loc fe.pexp_loc in
                          let a, b = span_with_separator src (a, b) in
                          literal_edits :=
                            { e_start = a; e_stop = b; e_text = "" }
                            :: !literal_edits)
                      fields
                | _ -> ());
            out :=
              {
                s_line = Frontend.line_of_loc l.pld_loc;
                s_note = l.pld_name.txt ^ " field deleted";
                s_edits =
                  {
                    e_start = fst decl_span;
                    e_stop = snd decl_span;
                    e_text = "";
                  }
                  :: !literal_edits;
              }
              :: !out
          end)
        labels);
  !out

let sites_demote_atomic_get p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match (Summary.primitive e, e.pexp_desc) with
      | Some (Read _), Pexp_apply (head, _) when List.mem "Atomic" (head_path e) ->
          let a, b = span_of_loc head.pexp_loc in
          out :=
            {
              s_line = line_of e;
              s_note = "Runtime read demoted to Stdlib.Atomic.get";
              s_edits =
                [ { e_start = a; e_stop = b; e_text = "Stdlib.Atomic.get" } ];
            }
            :: !out
      | _ -> ());
  !out

(* The innermost body of a [fun]-chain: where an inserted binding lands
   inside the function proper, after its parameters. *)
let sites_alloc_in_retry (p : Frontend.parsed) src =
  let out = ref [] in
  let has_cas body =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match cas_app e with Some _ -> found := true | None -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it body;
    !found
  in
  let seen = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (Asttypes.Recursive, vbs) ->
              List.iter
                (fun vb ->
                  let body = snd (Summary.fn_shape vb.pvb_expr) in
                  if has_cas body then begin
                    let a, _ = span_of_loc body.pexp_loc in
                    if not (List.mem a !seen) then begin
                      seen := a :: !seen;
                      out :=
                        {
                          s_line = Frontend.line_of_loc body.pexp_loc;
                          s_note = "array allocated inside the retry loop";
                          s_edits =
                            [
                              {
                                e_start = a;
                                e_stop = a;
                                e_text = "let _pool = Array.make 1 0 in ";
                              };
                            ];
                        }
                        :: !out
                    end
                  end)
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it p.p_ast;
  ignore src;
  !out

(* A record is a target only when the file publishes it through a cell
   ({!File_rules.on_published_records}: a record type or a variant's
   inline record behind an [Atomic.t], an [M.state] extension's behind a
   [Cell.t]) — the records the mutable-atomic rule guards. A [mutable]
   on a record held in a plain array is legal OCaml the rule rightly
   ignores. *)
let sites_mutabilize p _src =
  let out = ref [] in
  File_rules.on_published_records p (fun name labels ->
      List.iter
        (fun (l : label_declaration) ->
          if l.pld_mutable = Asttypes.Immutable then
            let a, _ = span_of_loc l.pld_loc in
            out :=
              {
                s_line = Frontend.line_of_loc l.pld_loc;
                s_note =
                  Printf.sprintf
                    "%s.%s marked mutable behind the cell that publishes it"
                    name l.pld_name.txt;
                s_edits = [ { e_start = a; e_stop = a; e_text = "mutable " } ];
              }
              :: !out)
        labels);
  !out

(* Delete each waiver comment, nesting included. Whatever the waiver was
   holding back must then resurface — the certification that waivers
   never mask a dead rule. *)
let sites_drop_waiver (p : Frontend.parsed) _src =
  List.map
    (fun (w : File_rules.waiver) ->
      let a, b = span_of_loc w.w_loc in
      {
        s_line = Frontend.line_of_loc w.w_loc;
        s_note = "waiver deleted; the waived finding must resurface";
        s_edits = [ { e_start = a; e_stop = b; e_text = "" } ];
      })
    (File_rules.waivers p)

let sites_drop_top_refresh p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match Summary.primitive e with
      | Some (Store (l, _)) when List.mem "Atomic" (head_path e) -> (
          match l.pexp_desc with
          | Pexp_field (_, { txt; _ })
            when seg_contains (last_seg (Frontend.flatten txt)) "top" ->
              out :=
                {
                  s_line = line_of e;
                  s_note = "cached-top refresh deleted";
                  s_edits = [ replace e "()" ];
                }
                :: !out
          | _ -> ())
      | _ -> ());
  !out

let collectors =
  [
    ("cas-to-set", sites_cas_to_set);
    ("demote-rmw", sites_demote_rmw);
    ("drop-backoff", sites_drop_backoff);
    ("drop-deadline", sites_drop_deadline);
    ("drop-help", sites_drop_help);
    ("drop-stamp", sites_drop_stamp);
    ("drop-completion", sites_drop_completion);
    ("stale-republish", sites_stale_republish);
    ("inplace-publish", sites_inplace_publish);
    ("swap-lock-order", sites_swap_lock_order);
    ("drop-unlock", sites_drop_unlock);
    ("drop-pad", sites_drop_pad);
    ("demote-atomic-get", sites_demote_atomic_get);
    ("alloc-in-retry", sites_alloc_in_retry);
    ("mutabilize", sites_mutabilize);
    ("drop-waiver", sites_drop_waiver);
    ("drop-top-refresh", sites_drop_top_refresh);
  ]

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(** Valid mutants of one source file under the named operators (default:
    the whole catalog). Deterministic: sites are emitted in source
    order per operator, ids carry [op:file:line] plus a [#k]
    disambiguator when one line hosts several sites. Sites whose
    rewritten source no longer parses are dropped. *)
let mutants_of_file ?(ops = op_names) ((path, src) : string * string) :
    mutant list =
  match Frontend.parse ~path src with
  | Error _ -> []
  | Ok p ->
      let base = Filename.basename path in
      List.concat_map
        (fun op ->
          match List.assoc_opt op collectors with
          | None -> []
          | Some collect ->
              let sites =
                collect p src
                |> List.sort (fun a b -> compare (a.s_line, a.s_note) (b.s_line, b.s_note))
              in
              let counts = Hashtbl.create 8 in
              List.filter_map
                (fun s ->
                  match apply_edits src s.s_edits with
                  | None -> None
                  | Some msrc -> (
                      match Frontend.parse ~path msrc with
                      | Error _ -> None
                      | Ok _ ->
                          let key = (op, s.s_line) in
                          let k =
                            Option.value (Hashtbl.find_opt counts key)
                              ~default:0
                          in
                          Hashtbl.replace counts key (k + 1);
                          let id =
                            Printf.sprintf "%s:%s:%d%s" op base s.s_line
                              (if k = 0 then ""
                               else Printf.sprintf "#%d" k)
                          in
                          Some
                            {
                              m_id = id;
                              m_op = op;
                              m_file = path;
                              m_line = s.s_line;
                              m_note = s.s_note;
                              m_src = msrc;
                            }))
                sites)
        ops

(** Valid mutants across a file set, in (file, operator, line) order. *)
let mutants ?ops (files : (string * string) list) : mutant list =
  List.concat_map (fun f -> mutants_of_file ?ops f) files
