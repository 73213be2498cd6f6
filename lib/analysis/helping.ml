(** The retry-loop discipline on the call graph: rules [static-retry]
    and [alloc-in-retry], both over {!Callgraph.retry_loop}, the lint's
    one definition of a CAS retry loop.

    - [static-retry]: a retry loop must also transitively reach a
      {e helping site} (a completing CAS by shape, or a blind CAS of its
      own file — see {!Summary}) or a {e backoff} ([cpu_relax]). A loop
      reaching neither spins on contention it does nothing to relieve —
      Sundell & Tsigas's livelock-prone shape. Call-graph facts see
      through aliases ([let restore = moundify]) and renames, and the
      file-boundary cuts of {!Callgraph} keep {!Mcas}'s internal helping
      and [Tree.expand]'s blind growth CASes from crediting a client
      loop: the client brings its own helping or backoff — the paper's
      discipline ([insert] backs off, [extract] helps via [moundify]).
    - [alloc-in-retry]: a fresh allocation ({!Summary.primitive}'s
      [Alloc]: an array, bytes or buffer, a [lazy] or an applied [ref])
      in the body of a retry loop allocates on every retry; hoist the
      fresh value out of the loop. Record literals are deliberately not
      flagged: a CAS argument must be a fresh record.

    [lib/baselines], which reproduces published third-party loops
    faithfully, and the runtime layer are exempt. *)

open Parsetree

(* The allocation sites of a function body: (line, what). *)
let allocations body =
  let out = ref [] in
  let expr it e =
    (match Summary.primitive e with
    | Some (Alloc what) ->
        out := (Frontend.line_of_loc e.pexp_loc, what) :: !out
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  List.rev !out

let scan (cg : Callgraph.t) : Frontend.finding list =
  let out = ref [] in
  Array.iteri
    (fun i (f : Summary.fn) ->
      let finding line rule msg =
        out := { Frontend.file = f.ffile; line; rule; msg } :: !out
      in
      let eff = Callgraph.trans_effects cg i in
      if
        (not (Frontend.helping_exempt_path f.ffile))
        && Callgraph.retry_loop cg i
      then begin
        if not (eff.helps || eff.blind_cas || eff.backs_off) then
          finding f.fline "static-retry"
            (Printf.sprintf
               "retry loop %s performs a CAS but its call graph reaches \
                neither a helping routine nor a backoff; help the \
                obstructing operation or back off"
               (String.concat "." f.fpath));
        List.iter
          (fun (line, what) ->
            finding line "alloc-in-retry"
              (what
             ^ " allocates on every CAS retry; hoist the fresh value out of \
                the loop and reuse it across attempts"))
          (allocations f.fbody)
      end)
    (Callgraph.fns cg);
  List.rev !out
