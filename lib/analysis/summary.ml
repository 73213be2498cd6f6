(** Per-function summaries over the Parsetree.

    For every function defined in a file — top-level, nested in modules
    and functors, or [let]-bound inside another function — this module
    records where it is, what it calls, and which primitive {e effect
    sites} its body contains. Every shared-memory primitive is
    recognized once, by {!primitive}, which the lint rules and the
    mutation operators all classify an application with:

    - {e performs-CAS}: a CAS-family operation ([cas], [dcas], [dcss],
      [casn], [compare_and_set]). The site is {e blind} when its result
      is statically discarded ([ignore (...)], [let _ =], sequence
      position, a loop body) — the one-shot completion idiom of
      {!Mcas.rdcss_complete} and {!Tree.expand}: any thread may fire
      it, exactly one takes effect, nobody retries on its account — and
      {e observed} otherwise;
    - {e helps}: a completing CAS whose fresh value is a record literal
      carrying [dirty = false] (the moundify idiom, recognized by shape
      rather than by the callee's name), seen through a constructor
      applied to it and through the arms of a [match]
      ({!record_literals});
    - {e backs-off}: a call to [cpu_relax] (every backoff primitive in
      the tree bottoms out there);
    - {e writes-nonatomically}: an atomic store ([X.set loc v]) that is not
      a lock release ({!is_release}).

    Calls are resolved through lexical scope — [let]-bound inner
    functions, value aliases ([let restore = moundify]) and module
    aliases ([module T = Tree.Make (R)]) — into full module-path
    segments, so the call graph sees through the renamings that defeat
    recognition by name. Sites inside a nested function are attributed
    to the nested function {e and} folded into its host, so a wrapper
    whose loop lives in an inner [let rec] still summarizes truthfully.

    [publishes] lists the positional parameters the function forwards
    into a CAS fresh-value position ({!Lf_mound}'s [cas_reusing]/
    [dcss_reusing] take the fresh record as an argument), letting the
    publication analysis treat such wrappers as publication sites.
    [projects] lists the fields a one-parameter accessor returns
    ([is_dirty], reading a node's dirty bit), so {!Dataflow} can count a
    call of one as a read of that field. [touches] and [rmw] are what
    {!Layout} reads: the field names the body reads or assigns, and
    whether it calls a primitive RMW. *)

open Parsetree

type effects = {
  performs_cas : bool;
  observes_cas : bool;  (* a CAS whose result is used *)
  blind_cas : bool;  (* a CAS whose result is discarded *)
  helps : bool;
  backs_off : bool;
  writes_nonatomically : bool;
      (* a dotted [set] that is not a lock release: a plain store into
         an atomic location, the sink of a lost update *)
}

let no_effects =
  {
    performs_cas = false;
    observes_cas = false;
    blind_cas = false;
    helps = false;
    backs_off = false;
    writes_nonatomically = false;
  }

let union_effects a b =
  {
    performs_cas = a.performs_cas || b.performs_cas;
    observes_cas = a.observes_cas || b.observes_cas;
    blind_cas = a.blind_cas || b.blind_cas;
    helps = a.helps || b.helps;
    backs_off = a.backs_off || b.backs_off;
    writes_nonatomically = a.writes_nonatomically || b.writes_nonatomically;
  }

type call = { callee : string list; call_line : int }

type fn = {
  fpath : string list;  (* e.g. ["Lock_mound"; "Make"; "set_lock"] *)
  ffile : string;
  fline : int;
  fcalls : call list;
  fdirect : effects;
  fpublishes : int list;  (* params forwarded to a CAS fresh-value slot *)
  fprojects : string list;
      (* the record fields a one-parameter accessor returns
         ({!projected_fields}); [[]] for any other function *)
  fwrites : string list;
      (* syntactic keys of atomic locations this function writes — the
         CAS-target and dotted-[set] location names ([root], [slot]…) —
         so the ABA analysis can ask which locations are recycled by
         more than one function *)
  ftouches : string list;  (* record field names read or assigned *)
  frmw : bool;  (* performs a primitive RMW ({!primitive}'s [Rmw]) *)
  fbody : expression;
  fscope : scope;
      (* lexical scope at the function's entry, for re-resolving call
         sites during the per-body analyses; aliases bound later inside
         the body are only visible to the summary walk itself *)
}

and scope = {
  modpath : string list;
  menv : (string * string list) list;  (* module alias -> full path *)
  venv : (string * string list) list;  (* value alias / nested fn -> path *)
}

let cas_family = [ "cas"; "casn"; "dcas"; "dcss"; "compare_and_set" ]

(* Does [sub] occur in [s]? The one substring test behind every
   recognition-by-name heuristic of the lint and the mutation engine. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The legs a CAS-family operation writes, as 0-based positions among
   its [Nolabel] arguments: (location, expected, freshly published
   value). [dcss] only validates its first pair; [casn] takes an array
   of triples — unanalyzed. The one statement of the argument layout
   that the summaries, {!Publication} and {!Aba_risk} all read. *)
let cas_legs = function
  | "cas" | "compare_and_set" -> [ (0, 1, 2) ]
  | "dcss" -> [ (2, 3, 4) ]
  | "dcas" -> [ (0, 1, 2); (3, 4, 5) ]
  | _ -> []

(* The freshly published values among a CAS-family operation's
   positional arguments. *)
let fresh_args op args =
  List.filter_map (fun (_, _, f) -> List.nth_opt args f) (cas_legs op)

(* ---- small AST probes -------------------------------------------------- *)

let rec strip_casts e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_casts e
  | _ -> e

let flatten_ident e =
  match (strip_casts e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Frontend.flatten txt)
  | _ -> None

let nolabel_args args =
  List.filter_map
    (fun (lbl, e) -> if lbl = Asttypes.Nolabel then Some e else None)
    args

(* ---- shared-memory primitives ------------------------------------------ *)

type prim =
  | Read of expression  (** [X.get loc]: exactly one positional argument *)
  | Store of expression * expression
      (** [X.set loc v]: exactly two; [a.(i) <- v] desugars to the
          three-argument [Array.set], a plain heap write *)
  | Cas of string * expression list
      (** a CAS-family operation and its positional arguments, laid out
          as {!cas_legs} says *)
  | Rmw of string * expression list  (** [fetch_and_add], [exchange] *)
  | Relax  (** [cpu_relax]: every backoff bottoms out there *)
  | Alloc of string  (** a fresh mutable value, named as written *)

(* Which primitive [e] performs, if any: the one recognizer of the
   shared-memory operations behind the summaries, the {!Dataflow} pass,
   {!Layout}, {!Helping} and the mutation operators. Read, store, CAS
   and RMW are dotted ([R.Atomic.get], [Cell.cas]); a bare [get] or
   [set] is some local function. *)
let primitive e =
  match e.pexp_desc with
  | Pexp_lazy _ -> Some (Alloc "lazy")
  | Pexp_apply (head, args) -> (
      match flatten_ident head with
      | None -> None
      | Some segs -> (
          let nargs = nolabel_args args in
          match (List.rev segs, nargs) with
          | "cpu_relax" :: _, _ -> Some Relax
          | [ "ref" ], _ -> Some (Alloc "ref")
          | ( ("make" | "init") :: "Array" :: _
            | ("make" | "init" | "create") :: "Bytes" :: _
            | "create" :: "Buffer" :: _ ),
            _ ->
              Some (Alloc (String.concat "." segs))
          | [ _ ], _ -> None
          | "get" :: _, [ loc ] -> Some (Read loc)
          | "set" :: _, [ loc; v ] -> Some (Store (loc, v))
          | (("fetch_and_add" | "exchange") as op) :: _, _ ->
              Some (Rmw (op, nargs))
          | op :: _, _ when List.mem op cas_family -> Some (Cas (op, nargs))
          | _ -> None))
  | _ -> None

(* The variable at the root of [v], [v.f], [v.f.g] — how forwarded
   fresh values and mutation receivers are written. *)
let rec base_var e =
  match (strip_casts e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | Pexp_field (e, _) -> base_var e
  | _ -> None

(* The syntactic key of a written atomic location: the last field name
   of [t.root] / [t.tree.rows], the variable itself for a bare [slot],
   the receiver's key for an indexing call like [t.rows.(d)]. *)
let rec loc_write_key e =
  match (strip_casts e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Frontend.flatten txt) with
      | f :: _ -> Some f
      | [] -> None)
  | Pexp_apply (_, (Asttypes.Nolabel, a) :: _) -> loc_write_key a
  | _ -> None

let is_bool_lit b e =
  match (strip_casts e).pexp_desc with
  | Pexp_construct ({ txt = Lident c; _ }, None) ->
      c = (if b then "true" else "false")
  | _ -> false

(* An expression that produces no value: [assert false] or a call of
   a raising primitive. The raising arm that closes a match on an open
   type ([| _ -> assert false]) is one. *)
let raises e =
  match (strip_casts e).pexp_desc with
  | Pexp_assert a -> is_bool_lit false a
  | Pexp_apply (head, _) -> (
      match flatten_ident head with
      | Some ([ f ] | [ "Stdlib"; f ]) ->
          List.mem f [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]
      | _ -> false)
  | _ -> false

(* The record literals (or functional updates) [e] evaluates to, as
   their field lists: a literal itself, a constructor applied to one (an
   inline record, [Node { n with dirty = false }]), or a [match] each of
   whose arms is one or {!raises}. [None] when some outcome is not a
   literal. The one notion of "a fresh record value" behind every
   shape-keyed recognizer of a CAS argument. *)
let rec record_literals e =
  match (strip_casts e).pexp_desc with
  | Pexp_record (fields, _) -> Some [ fields ]
  | Pexp_construct (_, Some a) -> record_literals a
  | Pexp_match (_, cases) -> (
      match
        List.fold_left
          (fun acc c ->
            match acc with
            | Some ls when raises c.pc_rhs -> Some ls
            | Some ls -> Option.map (( @ ) ls) (record_literals c.pc_rhs)
            | None -> None)
          (Some []) cases
      with
      | Some [] -> None
      | lits -> lits)
  | _ -> None

(* A record literal (or functional update) binding [field] to the boolean
   literal [b] — [{ list; locked = false }], [{ s with locked = false }],
   [Node { n with dirty = false }]: some literal [e] evaluates to. *)
let record_sets_field field b e =
  List.exists
    (List.exists (fun ((lid : Longident.t Asttypes.loc), v) ->
         (match lid.txt with Longident.Lident f -> f = field | _ -> false)
         && is_bool_lit b v))
    (Option.value (record_literals e) ~default:[])

(* ---- protocol field vocabulary ----------------------------------------- *)

(* A version counter's field name: [seq], [ver], [stamp], [epoch]. *)
let version_name f =
  let f = String.lowercase_ascii f in
  contains_sub f "seq" || contains_sub f "ver" || contains_sub f "stamp"
  || contains_sub f "epoch"

(* A record field that stamps a fresh version: a version-vocabulary
   field bound to a computed expression ([seq = cur.seq + 1]), not a
   constant reset or a plain copy of the old counter. *)
let stamps ((lid : Longident.t Asttypes.loc), v) =
  version_name (Longident.last lid.txt)
  && match (strip_casts v).pexp_desc with Pexp_apply _ -> true | _ -> false

(* The fields the mound protocols branch on before a CAS: the
   dirty/locked bits and the version counter. *)
let revalidation_name f =
  let lf = String.lowercase_ascii f in
  version_name f || contains_sub lf "dirty" || contains_sub lf "lock"

(* A constructor naming the held state of a lock ([Locked], [Lock]):
   where the lock bit is a constructor rather than a field, a pattern
   on one tests the bit as a [locked] field read does. *)
let lock_ctor c =
  let c = String.lowercase_ascii c in
  String.length c >= 4 && String.sub c 0 4 = "lock"

(* Does [p] match a lock constructor, under aliases and or-patterns? *)
let rec pat_lock p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> lock_ctor (Longident.last txt)
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> pat_lock q
  | Ppat_or (a, b) -> pat_lock a || pat_lock b
  | _ -> false

(* [Some s] when [e] reads an unlocked value out of the held block [s]:
   a [match s with] each of whose arms {!raises} or matches a lock
   constructor and returns something that is not one — [match src with
   Locked { was } -> was | _ -> assert false], the record the block
   replaced, or a record built from it. *)
let held_block e =
  match (strip_casts e).pexp_desc with
  | Pexp_match (s, cases) ->
      let unlocks c =
        pat_lock c.pc_lhs
        &&
        match (strip_casts c.pc_rhs).pexp_desc with
        | Pexp_construct ({ txt; _ }, _) -> not (lock_ctor (Longident.last txt))
        | _ -> true
      in
      if
        List.exists unlocks cases
        && List.for_all (fun c -> unlocks c || raises c.pc_rhs) cases
      then Some s
      else None
  | _ -> None

(* A lock release: a store of a record literal carrying [locked = false],
   of literal [false], or of what a held block replaced ({!held_block}).
   Not a lost update even when the value is built from the location's
   own read, so it is no [writes_nonatomically] site and no {!Dataflow}
   [h_set]. *)
let is_release v =
  record_sets_field "locked" false v || is_bool_lit false v
  || held_block v <> None

(* [Some v] when [e] reads a protocol field of [v]: [v.dirty], [v.seq],
   or a call of a one-parameter accessor whose summary returns only such
   fields ([is_dirty v]; [projects] maps a call's path to the callee's
   [fprojects]). What {!Dataflow} counts as re-validating a shared read
   and the [drop-stamp] operator deletes. *)
let protocol_read ~projects e =
  match (strip_casts e).pexp_desc with
  | Pexp_field (r, { txt; _ }) when revalidation_name (Longident.last txt) ->
      Some r
  | Pexp_apply (head, args) -> (
      match (flatten_ident head, nolabel_args args) with
      | Some segs, [ a ] -> (
          match projects segs with
          | _ :: _ as fields when List.for_all revalidation_name fields ->
              Some a
          | _ -> None)
      | _ -> None)
  | _ -> None

let pat_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* Every simple (unqualified) identifier mentioned in a subtree — the
   conservative free-variable probe {!Dataflow} uses to decide which
   fresh values a call may share. Over-approximates (shadowing is
   ignored). *)
let idents_of e =
  let out = ref [] in
  let it = Ast_iterator.default_iterator in
  let expr it' (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident v; _ } ->
        if not (List.mem v !out) then out := v :: !out
    | _ -> ());
    it.expr it' e
  in
  let it = { it with expr } in
  it.expr it e;
  !out

(* Unwrap a binding's function structure: parameter patterns (in order,
   with their labels) and the innermost body. A [function]-style body
   contributes one anonymous parameter. *)
let rec fn_shape e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
      let params, inner = fn_shape body in
      ((lbl, Option.value (pat_var pat) ~default:"_") :: params, inner)
  | Pexp_newtype (_, body) -> fn_shape body
  | Pexp_constraint (body, _) -> fn_shape body
  | Pexp_function _ -> ([ (Asttypes.Nolabel, "_") ], e)
  | _ -> ([], e)

(* The record fields whose value [pat] binds to the variable [v]:
   [["dirty"]] for [Node { dirty; _ }] or [Empty { dirty = v; _ }]. *)
let rec bound_fields v pat =
  match pat.ppat_desc with
  | Ppat_record (fields, _) ->
      List.concat_map
        (fun ((lid : Longident.t Asttypes.loc), q) ->
          match pat_var q with
          | Some x when x = v -> [ Longident.last lid.txt ]
          | _ -> bound_fields v q)
        fields
  | Ppat_construct (_, Some (_, q)) | Ppat_alias (q, _) | Ppat_constraint (q, _)
    ->
      bound_fields v q
  | Ppat_or (a, b) -> bound_fields v a @ bound_fields v b
  | _ -> []

(* The record fields a one-parameter accessor returns: [fun n -> n.f],
   or a [function] (or a [match] on the parameter) each of whose arms
   returns a field its pattern bound or {!raises} ([Empty { dirty; _ } |
   Node { dirty; _ } -> dirty]). [[]] for any other function. *)
let projected_fields params body =
  let arm c =
    if raises c.pc_rhs then Some []
    else
      match (strip_casts c.pc_rhs).pexp_desc with
      | Pexp_ident { txt = Lident v; _ } -> (
          match bound_fields v c.pc_lhs with [] -> None | fs -> Some fs)
      | _ -> None
  in
  let arms cases =
    List.fold_left
      (fun acc c ->
        match (acc, arm c) with Some a, Some b -> Some (a @ b) | _ -> None)
      (Some []) cases
  in
  let fields =
    match (params, (strip_casts body).pexp_desc) with
    | ( [ p ],
        Pexp_field ({ pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }, lid) )
      when v = p ->
        Some [ Longident.last lid.txt ]
    | [ "_" ], Pexp_function cases -> arms cases
    | ( [ p ],
        Pexp_match ({ pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }, cases)
      )
      when v = p ->
        arms cases
    | _ -> None
  in
  List.sort_uniq compare (Option.value fields ~default:[])

(* ---- scoped call resolution -------------------------------------------- *)

let resolve_module scope m =
  match List.assoc_opt m scope.menv with Some p -> p | None -> [ m ]

let resolve_call scope segs =
  match segs with
  | [ s ] -> (
      match List.assoc_opt s scope.venv with
      | Some p -> p
      | None -> scope.modpath @ [ s ])
  | m :: rest -> resolve_module scope m @ rest
  | [] -> []

(* ---- the body walk ----------------------------------------------------- *)

let rec module_head (m : module_expr) =
  match m.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (Frontend.flatten txt)
  | Pmod_apply (f, _) -> module_head f
  | Pmod_constraint (m, _) -> module_head m
  | _ -> None

type collector = {
  mutable calls : call list;
  mutable eff : effects;
  mutable publishes : int list;
  mutable writes : string list;
  mutable out : fn list;  (* nested functions, innermost first *)
  mutable touched : string list;
  mutable prim_rmw : bool;
      (* [layout] pairs fields with touching functions by name across
         files: a field called [rmw] would pair with [lib/chaos]'s CAS
         counters and flag this record *)
}

let new_collector () =
  {
    calls = [];
    eff = no_effects;
    publishes = [];
    writes = [];
    out = [];
    touched = [];
    prim_rmw = false;
  }

let add_new x l = if List.mem x l then l else x :: l

let param_index params v =
  let rec go i = function
    | [] -> None
    | p :: _ when p = v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 params

(* Walk [expr] collecting the current function's facts into [col],
   registering nested [let]-bound functions as their own summaries (and
   folding their facts into the host). [disc] is true when the value of
   [expr] is statically discarded. *)
let rec walk ~file ~scope ~params ~fnpath col disc expr =
  let self = walk ~file ~scope ~params ~fnpath col in
  match expr.pexp_desc with
  | Pexp_apply (head, args) -> (
      let ignored = flatten_ident head = Some [ "ignore" ] in
      List.iter
        (fun (_, a) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              (* a closure argument runs under its consumer; its sites
                 belong to this function *)
              let _, inner = fn_shape a in
              self false inner
          | _ -> self ignored a)
        args;
      match flatten_ident head with
      | None -> self false head
      | Some segs -> (
          let resolved = resolve_call scope segs in
          let line = Frontend.line_of_loc expr.pexp_loc in
          col.calls <- { callee = resolved; call_line = line } :: col.calls;
          let write loc =
            Option.iter
              (fun k -> col.writes <- add_new k col.writes)
              (loc_write_key loc)
          in
          match primitive expr with
          | Some (Cas (op, nargs)) ->
              col.eff <-
                {
                  col.eff with
                  performs_cas = true;
                  observes_cas = col.eff.observes_cas || not disc;
                  blind_cas = col.eff.blind_cas || disc;
                };
              List.iter
                (fun (l, _, _) -> Option.iter write (List.nth_opt nargs l))
                (cas_legs op);
              let fresh = fresh_args op nargs in
              (* completing CAS: publishes a clean record *)
              if List.exists (record_sets_field "dirty" false) fresh then
                col.eff <- { col.eff with helps = true };
              (* params forwarded as the fresh value *)
              List.iter
                (fun e ->
                  match (strip_casts e).pexp_desc with
                  | Pexp_ident { txt = Lident v; _ } ->
                      Option.iter
                        (fun i -> col.publishes <- add_new i col.publishes)
                        (param_index params v)
                  | _ -> ())
                fresh
          | Some (Store (loc, v)) ->
              write loc;
              if not (is_release v) then
                col.eff <- { col.eff with writes_nonatomically = true }
          | Some Relax -> col.eff <- { col.eff with backs_off = true }
          | Some (Rmw _) -> col.prim_rmw <- true
          | Some (Read _ | Alloc _) | None -> ()))
  | Pexp_let (_, vbs, cont) ->
      List.iter
        (fun vb ->
          match pat_var vb.pvb_pat with
          | Some name -> (
              let ps, _ = fn_shape vb.pvb_expr in
              if ps <> [] then begin
                (* nested function: its own summary, folded into ours *)
                let inner_scope =
                  {
                    scope with
                    venv = (name, fnpath @ [ name ]) :: scope.venv;
                  }
                in
                let nested =
                  collect_fn ~file ~scope:inner_scope
                    ~fnpath:(fnpath @ [ name ])
                    ~line:(Frontend.line_of_loc vb.pvb_loc)
                    vb.pvb_expr
                in
                col.out <- nested @ col.out;
                (* fold the nested body into the host under the HOST's
                   parameters: a fresh value an inner closure forwards
                   from a parameter the host received makes the host
                   itself the publisher *)
                let col2 = new_collector () in
                walk ~file ~scope:inner_scope ~params ~fnpath col2 false
                  vb.pvb_expr;
                col.eff <- union_effects col.eff col2.eff;
                col.calls <- List.rev_append col2.calls col.calls;
                col.publishes <-
                  List.fold_right add_new col2.publishes col.publishes;
                col.writes <- List.fold_right add_new col2.writes col.writes;
                col.touched <- List.fold_right add_new col2.touched col.touched;
                col.prim_rmw <- col.prim_rmw || col2.prim_rmw
              end
              else
                match flatten_ident vb.pvb_expr with
                | Some segs ->
                    (* value alias: [let restore = moundify] *)
                    ignore segs
                | None -> self false vb.pvb_expr)
          | None ->
              let d =
                match vb.pvb_pat.ppat_desc with
                | Ppat_any -> true
                | _ -> false
              in
              self d vb.pvb_expr)
        vbs;
      (* aliases and nested names extend scope for the continuation *)
      let scope' =
        List.fold_left
          (fun sc vb ->
            match pat_var vb.pvb_pat with
            | Some name -> (
                let ps, _ = fn_shape vb.pvb_expr in
                if ps <> [] then
                  { sc with venv = (name, fnpath @ [ name ]) :: sc.venv }
                else
                  match flatten_ident vb.pvb_expr with
                  | Some segs ->
                      {
                        sc with
                        venv = (name, resolve_call sc segs) :: sc.venv;
                      }
                  | None -> sc)
            | None -> sc)
          scope vbs
      in
      walk ~file ~scope:scope' ~params ~fnpath col disc cont
  | Pexp_sequence (e1, e2) ->
      self true e1;
      self disc e2
  | Pexp_ifthenelse (c, t, e) ->
      self false c;
      self disc t;
      Option.iter (self disc) e
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      self false s;
      List.iter
        (fun c ->
          Option.iter (self false) c.pc_guard;
          self disc c.pc_rhs)
        cases
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (self false) c.pc_guard;
          self false c.pc_rhs)
        cases
  | Pexp_fun (_, _, _, body) -> self false body
  | Pexp_while (c, b) ->
      self false c;
      self true b
  | Pexp_for (_, a, b, _, body) ->
      self false a;
      self false b;
      self true body
  | Pexp_setfield (r, { txt; _ }, v) ->
      col.touched <- add_new (Longident.last txt) col.touched;
      self false r;
      self false v
  | Pexp_field (e, { txt; _ }) ->
      col.touched <- add_new (Longident.last txt) col.touched;
      self false e
  | Pexp_newtype (_, e) | Pexp_constraint (e, _)
  | Pexp_coerce (e, _, _) | Pexp_open (_, e) | Pexp_assert e | Pexp_lazy e ->
      self false e
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> self false v) fields;
      Option.iter (self false) base
  | Pexp_tuple es | Pexp_array es -> List.iter (self false) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      Option.iter (self false) arg
  | Pexp_letmodule (name, me, e) ->
      (* [let module A = Atomic in …]: the local alias must resolve like
         a structure-level one, or calls through it lose their target *)
      let scope' =
        match (name.txt, module_head me) with
        | Some n, Some (hd :: rest) ->
            { scope with menv = (n, resolve_module scope hd @ rest) :: scope.menv }
        | _ -> scope
      in
      walk ~file ~scope:scope' ~params ~fnpath col disc e
  | _ -> ()

(* Summarize one function binding; returns the function followed by its
   nested functions. *)
and collect_fn ~file ~scope ~fnpath ~line e : fn list =
  let labelled, body = fn_shape e in
  let params = List.map snd labelled in
  (* a parameter shadows every same-named function: a call through it
     ([ge leaf] with [~ge] passed in) resolves to nothing, the empty
     path, instead of to a module-level [ge] *)
  let scope =
    {
      scope with
      venv =
        List.filter_map (fun p -> if p = "_" then None else Some (p, [])) params
        @ scope.venv;
    }
  in
  (* [fpublishes] indexes positional arguments, as a call site's
     {!nolabel_args} do: a labelled parameter takes no position *)
  let positional =
    List.filter_map
      (fun (l, p) -> if l = Asttypes.Nolabel then Some p else None)
      labelled
  in
  let col = new_collector () in
  walk ~file ~scope ~params:positional ~fnpath col false body;
  {
    fpath = fnpath;
    ffile = file;
    fline = line;
    fcalls = List.rev col.calls;
    fdirect = col.eff;
    fpublishes = List.sort compare col.publishes;
    fprojects = projected_fields params body;
    fwrites = List.sort_uniq compare col.writes;
    ftouches = col.touched;
    frmw = col.prim_rmw;
    fbody = body;
    fscope = scope;
  }
  :: List.rev col.out

(* ---- structures and modules -------------------------------------------- *)

let rec walk_module ~file ~scope name (m : module_expr) : fn list * scope =
  match m.pmod_desc with
  | Pmod_structure items ->
      let fns =
        walk_structure ~file
          ~scope:{ scope with modpath = scope.modpath @ [ name ] }
          items
      in
      (* register the nested module itself: later references
         ([Helpers.finish], or a local [module H = Helpers]) must
         resolve to the definition's full path *)
      ( fns,
        {
          scope with
          menv = (name, scope.modpath @ [ name ]) :: scope.menv;
        } )
  | Pmod_functor (_, body) -> walk_module ~file ~scope name body
  | Pmod_constraint (m, _) -> walk_module ~file ~scope name m
  | Pmod_ident _ | Pmod_apply _ -> (
      match module_head m with
      | Some (hd :: rest) ->
          let target = resolve_module scope hd @ rest in
          ([], { scope with menv = (name, target) :: scope.menv })
      | _ -> ([], scope))
  | _ -> ([], scope)

and walk_structure ~file ~scope items : fn list =
  let scope = ref scope in
  let acc = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match pat_var vb.pvb_pat with
              | Some name -> (
                  let ps, _ = fn_shape vb.pvb_expr in
                  if ps <> [] then
                    acc :=
                      collect_fn ~file ~scope:!scope
                        ~fnpath:(!scope.modpath @ [ name ])
                        ~line:(Frontend.line_of_loc vb.pvb_loc)
                        vb.pvb_expr
                      :: !acc
                  else
                    match flatten_ident vb.pvb_expr with
                    | Some segs ->
                        scope :=
                          {
                            !scope with
                            venv =
                              (name, resolve_call !scope segs) :: !scope.venv;
                          }
                    | None -> ())
              | None -> ())
            vbs
      | Pstr_module mb ->
          let name = Option.value mb.pmb_name.txt ~default:"_" in
          let fns, scope' = walk_module ~file ~scope:!scope name mb.pmb_expr in
          acc := fns :: !acc;
          scope := scope'
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              let name = Option.value mb.pmb_name.txt ~default:"_" in
              let fns, scope' =
                walk_module ~file ~scope:!scope name mb.pmb_expr
              in
              acc := fns :: !acc;
              scope := scope')
            mbs
      | _ -> ())
    items;
  List.concat (List.rev !acc)

let of_parsed (p : Frontend.parsed) : fn list =
  let root = Frontend.module_name_of_path p.p_path in
  walk_structure ~file:p.p_path
    ~scope:{ modpath = [ root ]; menv = []; venv = [] }
    p.p_ast
