(** Publication-safety analysis (rules [stale-publish],
    [post-publish-mutation]).

    The lock-free mound's correctness rests on fresh-copy publication
    (paper Listing 2): every CAS/DCSS installs a {e newly allocated}
    immutable record, and a record that has been published — or was read
    from shared memory — is never mutated in place. Physical equality is
    the ABA defence, so writing through a published record would be a
    racy write other threads can observe half-done, and re-publishing a
    record previously read from a location re-introduces ABA.

    Per function, in evaluation order:

    - a CAS-family fresh-value argument that is a variable bound to a
      {e shared read} ([M.get]/[R.Atomic.get]-shaped call) is flagged
      [stale-publish] — the dirty-bit idiom must go through a fresh
      copy, not recycle what it read;
    - a field assignment [v.f <- e] where [v] was earlier passed as a
      CAS fresh value, or was bound to a shared read, is flagged
      [post-publish-mutation] — mutation after (or of) shared state.

    Calls into functions that forward a parameter to a fresh-value slot
    ({!Lf_mound}'s [cas_reusing]/[dcss_reusing]; the {!Summary}
    [publishes] fact) are treated as publication sites for the
    corresponding argument.

    Under-approximations, by design: variables with unknown bindings
    (parameters, record fields, call results other than [get]) are not
    tracked; [casn]'s operation array is not analyzed; aliasing through
    data structures is invisible. Each can hide a violation, none
    produces a spurious finding — mutants exercise the covered idioms. *)

open Parsetree

type binding = Fresh | Shared_read | Unknown

let scan_fn (cg : Callgraph.t) (f : Summary.fn) : Frontend.finding list =
  let findings = ref [] in
  let add line rule msg =
    findings := { Frontend.file = f.ffile; line; rule; msg } :: !findings
  in
  let extra = ref [] in
  let resolve segs =
    let scope =
      { f.fscope with Summary.venv = !extra @ f.fscope.Summary.venv }
    in
    Callgraph.resolve ~from_file:f.ffile cg (Summary.resolve_call scope segs)
  in
  let bindings : (string, binding) Hashtbl.t = Hashtbl.create 8 in
  let published : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let classify e =
    let e = Summary.strip_casts e in
    match e.pexp_desc with
    | Pexp_record _ | Pexp_tuple _ -> Fresh
    | Pexp_construct (_, _) -> Fresh
    | Pexp_apply (head, _) -> (
        match Summary.flatten_ident head with
        | Some segs when List.length segs >= 2 -> (
            match List.rev segs with
            | "get" :: _ -> Shared_read
            | _ -> Unknown)
        | _ -> Unknown)
    | _ -> Unknown
  in
  let publish_site line arg =
    match (Summary.strip_casts arg).pexp_desc with
    | Pexp_ident { txt = Lident v; _ } -> (
        (match Hashtbl.find_opt bindings v with
        | Some Shared_read ->
            add line "stale-publish"
              (Printf.sprintf
                 "publishes %s, a record read from shared memory; CAS \
                  must install a freshly allocated copy (ABA and torn \
                  observation risk)"
                 v)
        | _ -> ());
        Hashtbl.replace published v line)
    | _ -> ()
  in
  let rec walk e =
    let e = Summary.strip_casts e in
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        List.iter
          (fun vb ->
            walk vb.pvb_expr;
            let ps, _ = Summary.fn_shape vb.pvb_expr in
            match Summary.pat_var vb.pvb_pat with
            | Some name when ps <> [] ->
                extra := (name, f.fpath @ [ name ]) :: !extra
            | Some name -> Hashtbl.replace bindings name (classify vb.pvb_expr)
            | None -> ())
          vbs;
        walk cont
    | Pexp_apply (head, args) ->
        List.iter (fun (_, a) -> walk a) args;
        (match Summary.flatten_ident head with
        | Some segs -> (
            let last = List.nth segs (List.length segs - 1) in
            let nargs = Summary.nolabel_args args in
            let line = Frontend.line_of_loc e.pexp_loc in
            if List.length segs >= 2 && List.mem last Summary.cas_family
            then
              List.iter
                (fun i ->
                  match List.nth_opt nargs i with
                  | Some a -> publish_site line a
                  | None -> ())
                (Summary.fresh_positions last)
            else
              match resolve segs with
              | Some j ->
                  let g = Callgraph.fn cg j in
                  List.iter
                    (fun p ->
                      match List.nth_opt nargs p with
                      | Some a -> publish_site line a
                      | None -> ())
                    g.fpublishes
              | None -> ())
        | None -> walk head)
    | Pexp_setfield (r, _, v) -> (
        walk v;
        walk r;
        match Summary.base_var r with
        | Some bv -> (
            let line = Frontend.line_of_loc e.pexp_loc in
            match (Hashtbl.find_opt published bv, Hashtbl.find_opt bindings bv)
            with
            | Some pline, _ ->
                add line "post-publish-mutation"
                  (Printf.sprintf
                     "mutates a field of %s after it was published by the \
                      CAS at line %d; other threads already see this \
                      record — publish a fresh copy instead"
                     bv pline)
            | None, Some Shared_read ->
                add line "post-publish-mutation"
                  (Printf.sprintf
                     "mutates a field of %s, which was read from shared \
                      memory; in-place writes race with concurrent \
                      readers — publish a fresh copy instead"
                     bv)
            | _ -> ())
        | None -> ())
    | Pexp_sequence (a, b) ->
        walk a;
        walk b
    | Pexp_ifthenelse (c, t, el) ->
        walk c;
        walk t;
        Option.iter walk el
    | Pexp_match (s, cs) | Pexp_try (s, cs) ->
        walk s;
        List.iter (fun c -> walk c.pc_rhs) cs
    | Pexp_function cs -> List.iter (fun c -> walk c.pc_rhs) cs
    | Pexp_fun (_, _, _, b)
    | Pexp_lazy b
    | Pexp_newtype (_, b)
    | Pexp_open (_, b)
    | Pexp_assert b ->
        walk b
    | Pexp_while (a, b) ->
        walk a;
        walk b
    | Pexp_for (_, a, b, _, c) ->
        walk a;
        walk b;
        walk c
    | Pexp_record (fs, base) ->
        List.iter (fun (_, v) -> walk v) fs;
        Option.iter walk base
    | Pexp_tuple es | Pexp_array es -> List.iter walk es
    | Pexp_construct (_, a) | Pexp_variant (_, a) -> Option.iter walk a
    | Pexp_field (a, _) -> walk a
    | _ -> ()
  in
  walk f.fbody;
  List.rev !findings

let scan (cg : Callgraph.t) : Frontend.finding list =
  Array.to_list (Callgraph.fns cg)
  |> List.concat_map (fun (f : Summary.fn) ->
         if Frontend.helping_exempt_path f.ffile then []
         else scan_fn cg f)
