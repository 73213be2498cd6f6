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
    - [mutable-atomic]: a record with [mutable] fields that the file
      publishes through a shared cell: a record type, or the inline
      record of a variant constructor, whose type is the argument of an
      [….Atomic.t] (or aliased [A.t]) type in the same file, or the
      inline record of a [type _ M.state += ...] constructor in a file
      that names [Cell.t] — such records look atomic but their fields
      are plain racy memory. Reported at the first mutable field of
      each record;
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
    of a [….Atomic.t] or aliased [A.t] type, and [state] when the file
    names a [Cell.t] — an {!Mcas} cell holds its cell state, whose
    constructors the file declares with [type _ M.state += ...]. *)
let atomic_published (p : Frontend.parsed) : string list =
  let out = ref [] in
  let typ it t =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, args) -> (
        let segs = List.rev (Frontend.flatten txt) in
        let atomic =
          match segs with
          | [ "t"; "A" ] -> true
          | "t" :: m :: _ -> String.ends_with ~suffix:"Atomic" m
          | _ -> false
        in
        (match segs with
        | "t" :: "Cell" :: _ -> out := "state" :: !out
        | _ -> ());
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

(** Every record field list the file declares, with the name of the
    type it belongs to and the record's own name: a record type
    ([lnode], ["lnode"]), the inline record of a variant constructor
    ([lnode], ["lnode.Node"]) and that of an extension constructor
    ([type _ M.state += Node of {...}]: the extended type's last
    segment, [state], and ["state.Node"]). *)
let on_record_fields (p : Frontend.parsed)
    (f : ty:string -> string -> label_declaration list -> unit) =
  let inline ty (name : string Location.loc) = function
    | Pcstr_record labels -> f ~ty (ty ^ "." ^ name.txt) labels
    | Pcstr_tuple _ -> ()
  in
  let it =
    {
      super with
      type_declaration =
        (fun it d ->
          let ty = d.ptype_name.txt in
          (match d.ptype_kind with
          | Ptype_record labels -> f ~ty ty labels
          | Ptype_variant cds ->
              List.iter
                (fun (cd : constructor_declaration) ->
                  inline ty cd.pcd_name cd.pcd_args)
                cds
          | Ptype_abstract | Ptype_open -> ());
          super.type_declaration it d);
      type_extension =
        (fun it te ->
          let ty = Longident.last te.ptyext_path.txt in
          List.iter
            (fun c ->
              match c.pext_kind with
              | Pext_decl (_, a, _) -> inline ty c.pext_name a
              | Pext_rebind _ -> ())
            te.ptyext_constructors;
          super.type_extension it te);
    }
  in
  iter_file it p

(** The records {!on_record_fields} lists whose type the file publishes
    through a cell ({!atomic_published}): the records [mutable-atomic]
    guards and the [mutabilize] operator targets. *)
let on_published_records (p : Frontend.parsed)
    (f : string -> label_declaration list -> unit) =
  let published = atomic_published p in
  on_record_fields p (fun ~ty name labels ->
      if List.mem ty published then f name labels)

let mutable_atomic (p : Frontend.parsed) : finding list =
  let out = ref [] in
  on_published_records p (fun name labels ->
      match List.find_opt (fun l -> l.pld_mutable = Mutable) labels with
      | Some l ->
          out :=
            finding p
              (Frontend.line_of_loc l.pld_loc)
              "mutable-atomic"
              (Printf.sprintf
                 "record %s has mutable fields but is published through an \
                  atomic cell; fields are plain racy memory"
                 name)
            :: !out
      | None -> ());
  List.rev !out

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
