(** Flow-sensitive abstract interpretation over one function body.

    A small dataflow engine shared by the atomic-protocol analyses
    ({!Aba_risk}, {!Atomicity}, {!Publication}): a single forward pass
    over the body in evaluation order — let-sequences, matches,
    conditionals, loops — threading an abstract state that maps local
    names to {e facts}:

    - [Shared_read]: the variable holds the result of a dotted [get] on
      an atomic location, keyed by the location's field/variable name,
      with a mutable [revalidated] flag that flips once the value's
      dirty bit or version counter is inspected ([n.dirty], [n.seq],
      [s.locked], [s.version] — the protocol's own re-validation
      vocabulary);
    - [Derived]: the variable was computed from a [Shared_read] (field
      projection, pattern destructuring, or any expression containing a
      fact-carrying name) and remembers the originating location key;
    - [Fresh_rec]: the variable holds a freshly allocated mutable value
      — a record literal, also under a constructor or in every arm of a
      [match] ({!Summary.record_literals}), remembering whether it is
      {e stamped}: binds a version-vocabulary field
      ([seq]/[ver]/[stamp]/[epoch]) to a computed bump rather than a
      constant or a plain copy; or a [ref], or an [Array]/[Bytes.make].
      Freshness is {e killed} the first time the variable is mentioned
      in any call argument: handing the value to a callee may share it.
      Hooks fire before the kill, so a CAS hook still sees the fact of
      the record it publishes.

    The pass is deliberately path-{e in}sensitive: both branches of a
    conditional and every match arm update one shared state, so a fact
    established on any path survives to the join. That over-approximates
    reads (possible false positives, waivable) and never invents
    spurious cleanliness on the path that matters. Aliasing through
    data structures, closures capturing facts, and facts flowing through
    unresolved call results are all invisible — each hides a violation
    at worst, consistent with the rest of the AST engine.

    Clients drive the pass with {!hooks}: callbacks fired at CAS-family
    sites, at non-release dotted [set] sites, and at every other
    resolved call, each {e before} the site's own arguments are walked —
    so the version bump inside a CAS's fresh record ([seq = cur.seq +
    1]) does not count as re-validation of the read it is about to
    replace — and at field assignments [r.f <- v], {e after} both
    operands are walked. *)

open Parsetree

type fact =
  | Shared_read of sr
  | Derived of { dkey : string }
  | Fresh_rec of { stamped : bool }

and sr = { key : string; rline : int; mutable revalidated : bool }

type ctx = { facts : (string, fact) Hashtbl.t }

(* ---- protocol vocabulary ---------------------------------------------- *)

let version_name f =
  let f = String.lowercase_ascii f in
  Summary.contains_sub f "seq"
  || Summary.contains_sub f "ver"
  || Summary.contains_sub f "stamp"
  || Summary.contains_sub f "epoch"

(* Inspecting any of these on a shared read counts as re-validating it
   before a CAS: the dirty/locked bits and the version counter are the
   fields the mound protocols branch on. *)
let revalidation_name f =
  let lf = String.lowercase_ascii f in
  version_name f
  || Summary.contains_sub lf "dirty"
  || Summary.contains_sub lf "lock"

(* ---- location keys ---------------------------------------------------- *)

(* Same syntactic keying as {!Summary.loc_write_key}: what a function
   writes (its [fwrites]) and what a fact was read from must compare
   under one notion of "the same location". *)
let loc_key = Summary.loc_write_key

(* ---- facts ------------------------------------------------------------ *)

let fact_key = function
  | Shared_read { key; _ } -> Some key
  | Derived { dkey } -> Some dkey
  | Fresh_rec _ -> None

(* A record literal's fields stamped with a fresh version: some
   version-vocab field bound to a computed expression ([seq = cur.seq +
   1]), not a constant reset or a plain copy of the old counter. *)
let stamped_record fields =
  List.exists
    (fun ((lid : Longident.t Asttypes.loc), v) ->
      (match lid.txt with
      | Longident.Lident f -> version_name f
      | _ -> false)
      &&
      match (Summary.strip_casts v).pexp_desc with
      | Pexp_apply (_, _) -> true
      | _ -> false)
    fields

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_vars p
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p -> pat_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pat_vars p
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | _ -> []

(* First location key reachable from [e] through known facts or a
   direct dotted [get]: the containment scan used to decide whether a
   stored value was computed from a shared read. *)
let rec contained_key ctx e =
  let e = Summary.strip_casts e in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } ->
      Option.bind (Hashtbl.find_opt ctx.facts v) fact_key
  | Pexp_apply (head, args) -> (
      let direct =
        match Summary.flatten_ident head with
        | Some segs when List.length segs >= 2 -> (
            match List.rev segs with
            | "get" :: _ -> (
                match Summary.nolabel_args args with
                | loc :: _ -> loc_key loc
                | [] -> None)
            | _ -> None)
        | _ -> None
      in
      match direct with
      | Some _ as k -> k
      | None ->
          List.find_map (fun (_, a) -> contained_key ctx a) args)
  | Pexp_field (r, _) -> contained_key ctx r
  | Pexp_construct (_, a) | Pexp_variant (_, a) ->
      Option.bind a (contained_key ctx)
  | Pexp_tuple es | Pexp_array es -> List.find_map (contained_key ctx) es
  | Pexp_record (fields, base) -> (
      match List.find_map (fun (_, v) -> contained_key ctx v) fields with
      | Some _ as k -> k
      | None -> Option.bind base (contained_key ctx))
  | Pexp_ifthenelse (_, t, e) -> (
      match contained_key ctx t with
      | Some _ as k -> k
      | None -> Option.bind e (contained_key ctx))
  | Pexp_match (s, cases) -> (
      match List.find_map (fun c -> contained_key ctx c.pc_rhs) cases with
      | Some _ as k -> k
      | None ->
          (* an arm built from what its pattern bound ([Node x -> Node
             { x with dirty = false }]) is computed from the scrutinee *)
          if
            List.exists
              (fun c ->
                let used = Summary.idents_of c.pc_rhs in
                List.exists (fun v -> List.mem v used) (pat_vars c.pc_lhs))
              cases
          then contained_key ctx s
          else None)
  | _ -> None

(* Abstract value of [e] in the current state. A fresh record
   ({!Summary.record_literals}: a literal, a constructor applied to one,
   a [match] of them) is stamped when every literal it may be is. *)
let fact_of ctx e =
  let e = Summary.strip_casts e in
  match (e.pexp_desc, Summary.record_literals e) with
  | _, Some lits ->
      Some (Fresh_rec { stamped = List.for_all stamped_record lits })
  | Pexp_ident { txt = Longident.Lident v; _ }, None ->
      Hashtbl.find_opt ctx.facts v
  | Pexp_field (r, _), None -> (
      match contained_key ctx r with
      | Some k -> Some (Derived { dkey = k })
      | None -> None)
  | Pexp_apply (head, args), None -> (
      match Summary.flatten_ident head with
      | Some [ "ref" ] when args <> [] ->
          Some (Fresh_rec { stamped = false })
      | Some segs when List.length segs >= 2 -> (
          match List.rev segs with
          | ("make" | "create" | "init") :: m :: _
            when m = "Array" || m = "Bytes" || m = "Buffer" ->
              Some (Fresh_rec { stamped = false })
          | "get" :: _ -> (
              match Summary.nolabel_args args with
              | loc :: _ -> (
                  match loc_key loc with
                  | Some key ->
                      Some
                        (Shared_read
                           {
                             key;
                             rline = Frontend.line_of_loc e.pexp_loc;
                             revalidated = false;
                           })
                  | None -> None)
              | [] -> None)
          | _ ->
              Option.map
                (fun k -> Derived { dkey = k })
                (contained_key ctx e))
      | _ ->
          Option.map (fun k -> Derived { dkey = k }) (contained_key ctx e))
  | _ ->
      Option.map (fun k -> Derived { dkey = k }) (contained_key ctx e)

(* ---- the walk --------------------------------------------------------- *)

type hooks = {
  h_cas : ctx -> line:int -> op:string -> expression list -> unit;
      (** a dotted CAS-family call; the list is its [Nolabel] args *)
  h_set : ctx -> line:int -> loc:expression -> value:expression -> unit;
      (** a dotted [set] that is not a lock release *)
  h_call : ctx -> line:int -> segs:string list -> expression list -> unit;
      (** any other applied identifier, unresolved segments + args *)
  h_setfield : ctx -> line:int -> expression -> unit;
      (** a field assignment [r.f <- v]; the expression is [r] *)
}

let no_hooks =
  {
    h_cas = (fun _ ~line:_ ~op:_ _ -> ());
    h_set = (fun _ ~line:_ ~loc:_ ~value:_ -> ());
    h_call = (fun _ ~line:_ ~segs:_ _ -> ());
    h_setfield = (fun _ ~line:_ _ -> ());
  }

let run (hooks : hooks) (body : expression) : unit =
  let ctx = { facts = Hashtbl.create 16 } in
  let rec walk e =
    let e = Summary.strip_casts e in
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        List.iter
          (fun vb ->
            walk vb.pvb_expr;
            let ps, _ = Summary.fn_shape vb.pvb_expr in
            match Summary.pat_var vb.pvb_pat with
            | Some name when ps = [] -> (
                match fact_of ctx vb.pvb_expr with
                | Some fact -> Hashtbl.replace ctx.facts name fact
                | None -> Hashtbl.remove ctx.facts name)
            | Some _ -> ()
            | None -> (
                (* destructuring let: pieces of a fact-carrying value
                   stay derived from its location *)
                match contained_key ctx vb.pvb_expr with
                | Some k ->
                    List.iter
                      (fun v ->
                        Hashtbl.replace ctx.facts v (Derived { dkey = k }))
                      (pat_vars vb.pvb_pat)
                | None ->
                    List.iter
                      (fun v -> Hashtbl.remove ctx.facts v)
                      (pat_vars vb.pvb_pat)))
          vbs;
        walk cont
    | Pexp_apply (head, args) -> (
        let line = Frontend.line_of_loc e.pexp_loc in
        (* handing a fresh value to any callee may share it: its
           freshness ends here, before the arguments are walked *)
        let kill_fresh () =
          List.iter
            (fun (_, a) ->
              List.iter
                (fun v ->
                  match Hashtbl.find_opt ctx.facts v with
                  | Some (Fresh_rec _) -> Hashtbl.remove ctx.facts v
                  | _ -> ())
                (Summary.idents_of a))
            args
        in
        let fire_then_walk_args fire =
          fire ();
          kill_fresh ();
          List.iter (fun (_, a) -> walk a) args
        in
        match Summary.flatten_ident head with
        | Some segs when List.length segs >= 2 -> (
            let last = List.nth segs (List.length segs - 1) in
            let nargs = Summary.nolabel_args args in
            if List.mem last Summary.cas_family then
              fire_then_walk_args (fun () ->
                  hooks.h_cas ctx ~line ~op:last nargs)
            else if last = "set" then
              match nargs with
              | [ loc; value ] when not (Summary.is_release value) ->
                  fire_then_walk_args (fun () ->
                      hooks.h_set ctx ~line ~loc ~value)
              | _ ->
                  (* not an Atomic-shaped 2-arg set: 3-arg [Array.set]
                     (the [a.(i) <- v] sugar) and release-shaped stores
                     are still calls clients must see as plain writes *)
                  fire_then_walk_args (fun () ->
                      hooks.h_call ctx ~line ~segs nargs)
            else
              fire_then_walk_args (fun () ->
                  hooks.h_call ctx ~line ~segs nargs))
        | Some segs ->
            fire_then_walk_args (fun () ->
                hooks.h_call ctx ~line ~segs (Summary.nolabel_args args))
        | None ->
            walk head;
            kill_fresh ();
            List.iter (fun (_, a) -> walk a) args)
    | Pexp_field (r, { txt; _ }) -> (
        walk r;
        (* [n.dirty] / [cur.seq]: inspecting the protocol bits of a
           shared read re-validates it *)
        match (Summary.strip_casts r).pexp_desc with
        | Pexp_ident { txt = Longident.Lident v; _ } -> (
            match
              ( Hashtbl.find_opt ctx.facts v,
                List.rev (Frontend.flatten txt) )
            with
            | Some (Shared_read sr), f :: _ when revalidation_name f ->
                sr.revalidated <- true
            | _ -> ())
        | _ -> ())
    | Pexp_match (s, cases) | Pexp_try (s, cases) ->
        walk s;
        let skey = contained_key ctx s in
        List.iter
          (fun c ->
            (match skey with
            | Some k ->
                List.iter
                  (fun v ->
                    Hashtbl.replace ctx.facts v (Derived { dkey = k }))
                  (pat_vars c.pc_lhs)
            | None ->
                List.iter
                  (fun v -> Hashtbl.remove ctx.facts v)
                  (pat_vars c.pc_lhs));
            Option.iter walk c.pc_guard;
            walk c.pc_rhs)
          cases
    | Pexp_sequence (a, b) ->
        walk a;
        walk b
    | Pexp_ifthenelse (c, t, el) ->
        walk c;
        walk t;
        Option.iter walk el
    | Pexp_function cases ->
        List.iter
          (fun c ->
            Option.iter walk c.pc_guard;
            walk c.pc_rhs)
          cases
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
    | Pexp_setfield (r, _, v) ->
        walk r;
        walk v;
        hooks.h_setfield ctx ~line:(Frontend.line_of_loc e.pexp_loc) r
    | Pexp_record (fs, base) ->
        List.iter (fun (_, v) -> walk v) fs;
        Option.iter walk base
    | Pexp_tuple es | Pexp_array es -> List.iter walk es
    | Pexp_construct (_, a) | Pexp_variant (_, a) -> Option.iter walk a
    | Pexp_letmodule (_, _, b) -> walk b
    | _ -> ()
  in
  walk body
