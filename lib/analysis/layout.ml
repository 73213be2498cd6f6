(** False-sharing layout analysis (rule [layout]).

    Walks every record type declaration in the analyzed files and flags
    {e unpadded hot-field adjacency}: two consecutive fields that are
    both hot — an [Atomic.t]-headed type or a [mutable] field — in a
    record whose hot fields are touched by at least two distinct
    CAS-performing (or primitive-RMW-performing) functions per the call
    graph. Two hot words updated by different operations from the same
    cache line ping-pong the line between cores; the fix is a pad block
    between them ({!Tree}'s [pads] idiom) or splitting the record.

    This is the guard rail for ROADMAP item 2 (the flat-array plane
    refactor): plane records replacing today's boxed nodes must keep
    their pad blocks, and a refactor that drops one trips this rule in
    CI rather than in a perf regression three PRs later.

    Mechanics: a field is {e hot} when declared [mutable] or when its
    type head is [….Atomic.t]; a field whose name carries "pad" is
    recognized as deliberate spacing (it also breaks adjacency simply
    by sitting between the hot pair). Touch-counting is by field name:
    a function touches the record when its body reads or assigns any of
    the record's hot field names, and it counts as a contention source
    when its transitive effects include [performs_cas] or its body
    calls a primitive RMW ([fetch_and_add] / [exchange]). One finding
    per record, anchored at the first offending pair.

    Caveats, by design: field names are matched globally (two records
    sharing a hot field name can attribute touches to each other);
    single-writer records — and records only ever touched by one
    operation — are not flagged, which is exactly the reasoned-waiver
    story for the diagnostic counter blocks. Exempt paths and substrate
    files are skipped. *)

open Parsetree

let rule = "layout"

let hot_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> (
      match List.rev (Frontend.flatten txt) with
      | "t" :: "Atomic" :: _ -> true
      | _ -> false)
  | _ -> false

let is_pad name = Summary.contains_sub (String.lowercase_ascii name) "pad"

let hot_label (l : label_declaration) =
  (not (is_pad l.pld_name.txt))
  && (l.pld_mutable = Asttypes.Mutable || hot_type l.pld_type)

(* ---- who touches which fields ----------------------------------------- *)

let rmw_heads = [ "fetch_and_add"; "exchange" ]

(* One pass over every function body: the field names it reads/assigns,
   and whether it calls a primitive RMW directly. *)
let touch_tables (cg : Callgraph.t) =
  let touched : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let has_rmw = Array.make (Array.length (Callgraph.fns cg)) false in
  Array.iteri
    (fun i (f : Summary.fn) ->
      let self = String.concat "." f.fpath in
      let note lid =
        match List.rev (Frontend.flatten lid) with
        | name :: _ ->
            let cur =
              Hashtbl.find_opt touched name |> Option.value ~default:[]
            in
            if not (List.mem self cur) then
              Hashtbl.replace touched name (self :: cur)
        | [] -> ()
      in
      let it = Ast_iterator.default_iterator in
      let expr it' (e : expression) =
        (match e.pexp_desc with
        | Pexp_field (_, { txt; _ }) -> note txt
        | Pexp_setfield (_, { txt; _ }, _) -> note txt
        | Pexp_apply (head, _) -> (
            match Summary.flatten_ident head with
            | Some segs
              when List.length segs >= 2
                   && List.mem (List.nth segs (List.length segs - 1)) rmw_heads
              ->
                has_rmw.(i) <- true
            | _ -> ())
        | _ -> ());
        it.expr it' e
      in
      let it = { it with expr } in
      it.expr it f.fbody)
    (Callgraph.fns cg);
  (touched, has_rmw)

(* ---- record declarations ---------------------------------------------- *)

let rec decls_of_module (m : module_expr) =
  match m.pmod_desc with
  | Pmod_structure items -> decls_of_structure items
  | Pmod_functor (_, body) -> decls_of_module body
  | Pmod_constraint (m, _) -> decls_of_module m
  | _ -> []

and decls_of_structure items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.filter_map
            (fun d ->
              match d.ptype_kind with
              | Ptype_record labels -> Some (d.ptype_name.txt, labels)
              | _ -> None)
            decls
      | Pstr_module mb -> decls_of_module mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.concat_map (fun mb -> decls_of_module mb.pmb_expr) mbs
      | _ -> [])
    items

let scan (parsed : Frontend.parsed list) (cg : Callgraph.t) :
    Frontend.finding list =
  let touched, has_rmw = touch_tables cg in
  (* paths of functions that are contention sources *)
  let hot_paths : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (f : Summary.fn) ->
      if (Callgraph.trans_effects cg i).Summary.performs_cas || has_rmw.(i)
      then Hashtbl.replace hot_paths (String.concat "." f.fpath) ())
    (Callgraph.fns cg);
  let contended_touchers name =
    Hashtbl.find_opt touched name
    |> Option.value ~default:[]
    |> List.filter (Hashtbl.mem hot_paths)
  in
  List.concat_map
    (fun (p : Frontend.parsed) ->
      if
        Frontend.helping_exempt_path p.p_path
        || Callgraph.is_substrate_file cg p.p_path
      then []
      else
        decls_of_structure p.p_ast
        |> List.filter_map (fun (tname, labels) ->
               let hot = List.filter hot_label labels in
               let rec first_pair = function
                 | a :: (b :: _ as rest) ->
                     if hot_label a && hot_label b then Some (a, b)
                     else first_pair rest
                 | _ -> None
               in
               match first_pair labels with
               | Some (a, b) ->
                   let writers =
                     List.concat_map
                       (fun (l : label_declaration) ->
                         contended_touchers l.pld_name.txt)
                       hot
                     |> List.sort_uniq compare
                   in
                   if List.length writers >= 2 then
                     Some
                       {
                         Frontend.file = p.p_path;
                         line = Frontend.line_of_loc a.pld_loc;
                         rule;
                         msg =
                           Printf.sprintf
                             "record %s puts hot fields %s and %s on one \
                              cache line (%d CAS/RMW-performing functions \
                              touch its hot fields) — false-sharing risk; \
                              put a pad block between them (Tree's pads \
                              idiom) or split the record"
                             tname a.pld_name.txt b.pld_name.txt
                             (List.length writers);
                       }
                   else None
               | None -> None))
    parsed
