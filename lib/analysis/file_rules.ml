(** The rules judged within one file, on its Parsetree and comments.

    Everything in [lib/] except [lib/runtime] and [lib/sim] must reach
    shared memory, domains, time, and randomness through the {!Runtime}
    functor interface — that is what lets one algorithm run both on real
    hardware and under the deterministic simulator. Per file this module
    reports:

    - [boundary]: a path starting with [Stdlib.Atomic], [Atomic.],
      [Domain.] or [Random.], or the path [Unix.gettimeofday], used as
      an expression, constructor, field, type, module expression or
      module type outside the runtime layer ({!Frontend.exempt_path}).
      The functor-constraint idiom [with type 'a Atomic.t = …] names the
      signature's own submodule and is not a use;
    - [mutable-atomic]: a record type with [mutable] fields whose name is
      the argument of an [….Atomic.t] (or aliased [A.t]) type in the
      same file — such records look atomic but their fields are plain
      racy memory. Reported at the first mutable field;
    - the helping discipline the lock-free mound depends on, judged per
      module-level [let] item. Help and backoff are recognized by name
      over every identifier, label, field, constructor, type and module
      path in the item: a name containing [help], [moundify] or
      [complete] marks helping; one containing [ackoff], [exponential]
      or [cpu_relax] marks backoff. An item that is recursive, or holds
      a [let rec], and performs a CAS with neither is an unbounded retry
      loop ([retry-no-backoff]). In an item without helping, a CAS whose
      result is discarded — an [ignore] argument, a [let _ =] binding,
      the left side of a sequence, a [while]/[for] body — is
      [cas-discard]. In a recursive CAS-performing item, an
      [Array.make]/[Array.init], [Bytes.create]/[Bytes.make], [lazy] or
      applied [ref] after the item's first [rec] allocates on every
      retry ([alloc-in-retry]); the hot-path discipline is to hoist the
      fresh value out of the loop. Record literals are deliberately not
      flagged: a CAS argument must be a fresh record. [lib/baselines]
      reproduces published third-party algorithms (Hunt heap,
      Lotan–Shavit and lock-free skiplists) whose loops are faithful to
      the originals, so these three rules exempt it;
    - [format]: tab characters, trailing whitespace, missing final
      newline.

    A comment that {e begins} with ["lint: allow"] waives findings on
    its own and the following line; one beginning with
    ["lint: allow-file"] waives the whole file's [boundary] and
    [mutable-atomic] findings (the other rules still apply). Prose that
    merely mentions a marker — like this paragraph — registers nothing.
    Every waiver must carry a reason after the marker (["lint: allow —
    setup-only id source"]); a reasonless waiver, and a waiver whose
    covered lines produce no finding (stale), are themselves findings
    under the [waiver] rule — which no waiver can silence. *)

open Parsetree

type finding = Frontend.finding

let finding (p : Frontend.parsed) line rule msg : finding =
  { Frontend.file = p.p_path; line; rule; msg }

let super = Ast_iterator.default_iterator

(* An iterator handing [use] every path used as an expression,
   constructor, field, type, module expression or module type. The
   constrained path of [with type 'a Atomic.t = …] is none of those. *)
let path_iterator use : Ast_iterator.iterator =
  let fields l = List.iter (fun (lid, _) -> use lid) l in
  {
    super with
    expr =
      (fun it e ->
        (match e.pexp_desc with
        | Pexp_ident lid
        | Pexp_construct (lid, _)
        | Pexp_field (_, lid)
        | Pexp_setfield (_, lid, _) ->
            use lid
        | Pexp_record (l, _) -> fields l
        | _ -> ());
        super.expr it e);
    pat =
      (fun it q ->
        (match q.ppat_desc with
        | Ppat_construct (lid, _) -> use lid
        | Ppat_record (l, _) -> fields l
        | _ -> ());
        super.pat it q);
    typ =
      (fun it t ->
        (match t.ptyp_desc with Ptyp_constr (lid, _) -> use lid | _ -> ());
        super.typ it t);
    module_expr =
      (fun it m ->
        (match m.pmod_desc with Pmod_ident lid -> use lid | _ -> ());
        super.module_expr it m);
    module_type =
      (fun it m ->
        (match m.pmty_desc with
        | Pmty_ident lid | Pmty_alias lid -> use lid
        | _ -> ());
        super.module_type it m);
  }

(* Walk a whole file, implementation or interface. *)
let iter_file (it : Ast_iterator.iterator) (p : Frontend.parsed) =
  it.structure it p.p_ast;
  it.signature it p.p_sig

(* ---- runtime boundary --------------------------------------------------- *)

let forbidden = function
  | "Stdlib" :: "Atomic" :: _ ->
      Some "direct Stdlib.Atomic use; go through Runtime"
  | "Atomic" :: _ :: _ -> Some "bare Atomic module access; go through Runtime"
  | "Domain" :: _ :: _ ->
      Some "direct Domain use; only lib/runtime may spawn or relax"
  | "Random" :: _ :: _ ->
      Some "ambient Random use; use the runtime's seeded PRNG"
  | [ "Unix"; "gettimeofday" ] ->
      Some "wall-clock read; timing belongs to the harness runtime layer"
  | _ -> None

let boundary (p : Frontend.parsed) : finding list =
  let out = ref [] in
  let use (lid : Longident.t Location.loc) =
    match forbidden (Frontend.flatten lid.txt) with
    | Some msg ->
        out := finding p (Frontend.line_of_loc lid.loc) "boundary" msg :: !out
    | None -> ()
  in
  if not (Frontend.exempt_path p.p_path) then iter_file (path_iterator use) p;
  List.rev !out

(* ---- mutable record behind an Atomic.t ---------------------------------- *)

(** Type names the file puts inside an atomic cell: the (last) argument
    of a [….Atomic.t] or aliased [A.t] type. *)
let atomic_published (p : Frontend.parsed) : string list =
  let out = ref [] in
  let typ it t =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, args) -> (
        let atomic =
          match List.rev (Frontend.flatten txt) with
          | [ "t"; "A" ] -> true
          | "t" :: m :: _ -> String.ends_with ~suffix:"Atomic" m
          | _ -> false
        in
        match List.rev args with
        | { ptyp_desc = Ptyp_constr ({ txt = Lident name; _ }, _); _ } :: _
          when atomic ->
            out := name :: !out
        | _ -> ())
    | _ -> ());
    super.typ it t
  in
  iter_file { super with typ } p;
  !out

let mutable_atomic (p : Frontend.parsed) : finding list =
  let published = atomic_published p in
  let out = ref [] in
  let type_declaration it d =
    (match d.ptype_kind with
    | Ptype_record labels when List.mem d.ptype_name.txt published -> (
        match List.find_opt (fun l -> l.pld_mutable = Mutable) labels with
        | Some l ->
            out :=
              finding p
                (Frontend.line_of_loc l.pld_loc)
                "mutable-atomic"
                (Printf.sprintf
                   "record %s has mutable fields but is published through \
                    an Atomic.t; fields are plain racy memory"
                   d.ptype_name.txt)
              :: !out
        | None -> ())
    | _ -> ());
    super.type_declaration it d
  in
  iter_file { super with type_declaration } p;
  List.rev !out

(* ---- helping discipline, per module-level [let] item ------------------- *)

let is_help s =
  List.exists (Summary.contains_sub s) [ "help"; "moundify"; "complete" ]

let is_backoff s =
  List.exists (Summary.contains_sub s) [ "ackoff"; "exponential"; "cpu_relax" ]

(* A CAS-family call: a dotted path ([M.cas], [R.Atomic.compare_and_set]).
   A bare [cas] is a local name, and a [counters.cas] field performs
   nothing. *)
let is_cas_path segs =
  List.length segs >= 2
  && List.mem (List.nth segs (List.length segs - 1)) Summary.cas_family

let offset (loc : Location.t) = loc.loc_start.pos_cnum

(* One module-level [let] item's findings. *)
let judge_item p (si : structure_item) : finding list =
  let names = ref [] and cas = ref false in
  let rec_at = ref max_int (* offset of the item's first [rec] *) in
  let allocs = ref [] and discarded = ref [] in
  let name s = names := s :: !names in
  let label = function
    | Asttypes.Labelled s | Asttypes.Optional s -> name s
    | Asttypes.Nolabel -> ()
  in
  let recursive flag (loc : Location.t) =
    if flag = Asttypes.Recursive then rec_at := min !rec_at (offset loc)
  in
  let alloc (loc : Location.t) what =
    allocs := (offset loc, Frontend.line_of_loc loc, what) :: !allocs
  in
  (* A value the program drops: the CAS it is, or the tail of the
     sequence it is, has its result discarded. *)
  let rec dropped e =
    match (Summary.strip_casts e).pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
      when is_cas_path (Frontend.flatten txt) ->
        discarded := Frontend.line_of_loc loc :: !discarded
    | Pexp_sequence (_, e2) -> dropped e2
    | _ -> ()
  in
  let underscore vb =
    match vb.pvb_pat.ppat_desc with Ppat_any -> dropped vb.pvb_expr | _ -> ()
  in
  let paths =
    path_iterator (fun lid -> List.iter name (Frontend.flatten lid.txt))
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        let segs = Frontend.flatten txt in
        if is_cas_path segs then cas := true;
        match List.rev segs with
        | ("make" | "init") :: "Array" :: _
        | ("create" | "make") :: "Bytes" :: _ ->
            alloc loc (String.concat "." segs)
        | _ -> ())
    | Pexp_fun (l, _, _, _) -> label l
    | Pexp_apply (head, args) -> (
        List.iter (fun (l, _) -> label l) args;
        match (head.pexp_desc, args) with
        | Pexp_ident { txt = Lident "ignore"; _ }, [ (_, a) ] -> dropped a
        | Pexp_ident { txt = Lident "ref"; loc }, _ :: _ -> alloc loc "ref"
        | _ -> ())
    | Pexp_let (flag, vbs, _) ->
        recursive flag e.pexp_loc;
        List.iter underscore vbs
    | Pexp_sequence (e1, _) -> dropped e1
    | Pexp_while (_, body) | Pexp_for (_, _, _, _, body) -> dropped body
    | Pexp_lazy _ -> alloc e.pexp_loc "lazy"
    | Pexp_letmodule ({ txt = Some n; _ }, _, _) -> name n
    | _ -> ());
    paths.expr it e
  in
  let pat it q =
    (match q.ppat_desc with
    | Ppat_var n | Ppat_alias (_, n) -> name n.txt
    | _ -> ());
    paths.pat it q
  in
  let typ it t =
    (match t.ptyp_desc with Ptyp_arrow (l, _, _) -> label l | _ -> ());
    paths.typ it t
  in
  let structure_item it s =
    (match s.pstr_desc with
    | Pstr_value (flag, vbs) ->
        recursive flag s.pstr_loc;
        List.iter underscore vbs
    | _ -> ());
    paths.structure_item it s
  in
  let it = { paths with expr; pat; typ; structure_item } in
  it.structure_item it si;
  let helped = List.exists is_help !names in
  let loops = !rec_at < max_int && !cas in
  (if loops && (not helped) && not (List.exists is_backoff !names) then
     [
       finding p
         (Frontend.line_of_loc si.pstr_loc)
         "retry-no-backoff"
         "unbounded retry loop around a compare-and-set with neither \
          backoff nor helping";
     ]
   else [])
  @ (if helped then []
     else
       List.rev_map
         (fun line ->
           finding p line "cas-discard"
             "compare-and-set result silently discarded; branch on it \
              (retry or help) or record why it is irrelevant")
         !discarded)
  @ List.filter_map
      (fun (off, line, what) ->
        if loops && off > !rec_at then
          Some
            (finding p line "alloc-in-retry"
               (Printf.sprintf
                  "%s allocates on every CAS retry; hoist the fresh value \
                   out of the loop and reuse it across attempts"
                  what))
        else None)
      (List.rev !allocs)

let helping (p : Frontend.parsed) : finding list =
  let out = ref [] in
  (* every module-level [let] item, nested modules and functor bodies
     included *)
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_value _ -> out := judge_item p si :: !out
    | _ -> super.structure_item it si
  in
  if not (Frontend.helping_exempt_path p.p_path) then
    iter_file { super with structure_item } p;
  List.concat (List.rev !out)

(* ---- format ------------------------------------------------------------- *)

let format ~path src : finding list =
  let out = ref [] in
  let add line msg =
    out := { Frontend.file = path; line; rule = "format"; msg } :: !out
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i l ->
      let ln = i + 1 in
      if String.contains l '\t' then add ln "tab character";
      let len = String.length l in
      if len > 0 && (l.[len - 1] = ' ' || l.[len - 1] = '\t') then
        add ln "trailing whitespace")
    lines;
  let n = String.length src in
  if n > 0 && src.[n - 1] <> '\n' then
    add (List.length lines) "missing final newline";
  List.rev !out

(* ---- waivers ------------------------------------------------------------ *)

type waiver = {
  w_loc : Location.t;  (** the whole comment *)
  w_file : bool;  (** [lint: allow-file] rather than [lint: allow] *)
  w_reasoned : bool;
}

(* A waiver comment is dedicated: the marker must lead the comment, after
   the opener's asterisks and whitespace. *)
let leads_with text marker =
  let lt = String.length text and lm = String.length marker in
  let j = ref 0 in
  while !j < lt && (text.[!j] = '*' || text.[!j] = ' ' || text.[!j] = '\n') do
    incr j
  done;
  !j + lm <= lt && String.sub text !j lm = marker

(* A waiver's reason is whatever follows the marker inside the comment;
   demand enough of it to actually say something. *)
let reasoned_after text marker =
  let lt = String.length text and lm = String.length marker in
  let rec find i =
    if i + lm > lt then None
    else if String.sub text i lm = marker then Some (i + lm)
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some j ->
      let alnum = ref 0 in
      String.iter
        (function
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> incr alnum
          | _ -> ())
        (String.sub text j (lt - j));
      !alnum >= 8

let waivers (p : Frontend.parsed) : waiver list =
  List.filter_map
    (fun (text, loc) ->
      let w marker w_file =
        Some { w_loc = loc; w_file; w_reasoned = reasoned_after text marker }
      in
      if leads_with text "lint: allow-file" then w "lint: allow-file" true
      else if leads_with text "lint: allow" then w "lint: allow" false
      else None)
    p.p_comments

(* A line waiver covers its first line, the line after it and the line
   after its last, so a waiver on lines of its own covers the next code
   line too. *)
let covered w =
  let first = w.w_loc.loc_start.pos_lnum in
  List.sort_uniq compare [ first; first + 1; w.w_loc.loc_end.pos_lnum + 1 ]

(** One parsed file's findings: the rules above plus [extra] (the
    cross-module analyses' findings for this file), filtered through the
    file's waivers, with waiver hygiene judged against all of them — a
    waiver covering only an [extra] finding is live, not stale. *)
let scan (p : Frontend.parsed) ~(extra : finding list) : finding list =
  let line_ws, file_ws = List.partition (fun w -> not w.w_file) (waivers p) in
  let boundary_all = boundary p @ mutable_atomic p in
  let base =
    (if file_ws = [] then boundary_all else [])
    @ helping p
    @ format ~path:p.p_path p.p_src
    @ extra
  in
  let waived = List.concat_map covered line_ws in
  let hygiene =
    List.filter_map
      (fun w ->
        let line = Frontend.line_of_loc w.w_loc in
        let waiver msg = Some (finding p line "waiver" msg) in
        if w.w_file then
          if not w.w_reasoned then
            waiver "file waiver without a reason; say why"
          else if boundary_all = [] then
            waiver "stale file waiver: no boundary finding in the file"
          else None
        else if not w.w_reasoned then
          waiver
            "waiver without a reason; say why, e.g. (* lint: allow — \
             setup-only id source *)"
        else if
          not
            (List.exists
               (fun (f : finding) -> List.mem f.Frontend.line (covered w))
               base)
        then waiver "stale waiver: no finding on the lines it covers"
        else None)
      (line_ws @ file_ws)
  in
  List.filter (fun (f : finding) -> not (List.mem f.Frontend.line waived)) base
  @ hygiene
  |> List.sort (fun (a : finding) b ->
         compare (a.Frontend.line, a.rule) (b.Frontend.line, b.rule))
