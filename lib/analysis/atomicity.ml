(** Lost-update analysis (rule [atomicity]).

    A read-modify-write on an atomic location must linearize: either a
    CAS loop re-validating the read, or a primitive RMW
    ([fetch_and_add]). The broken shape is [Atomic.get x] flowing into
    a computation that is then stored back with a plain [Atomic.set x]
    — any concurrent update between the get and the set is silently
    lost. The DPOR tier already proves this dynamically on the racy-pq
    mutant; this rule catches the shape statically, on every path the
    {!Dataflow} pass can see.

    Per non-release dotted [set] site: flag when the stored value
    {e derives from} a read of the same location key — it contains a
    variable carrying a [Shared_read]/[Derived] fact for that key
    (through let-bindings, field projections and match destructuring),
    or a direct inline [get] of it.

    Interprocedurally: a call into a function whose {e transitive}
    effects include the new {!Summary.effects.writes_nonatomically}
    fact is flagged when some argument is (or keys) a location [k] and
    another argument carries a fact derived from [k] — the callee
    stores plainly, the caller handed it both the location and a value
    computed from that location's read.

    Lock-release stores ([locked = false] records, literal [false]) are
    the mound's own unlock idiom and exempt by shape. Substrate files
    are skipped (their [set] {e is} the primitive being wrapped), as
    are exempt paths: the coarse-lock baselines do get-compute-set
    under their lock by design. Stores of values not derived from any
    tracked read — parameters, call results — are untracked, the same
    under-approximation as everywhere else in the engine. *)

let rule = "atomicity"

let scan_fn (cg : Callgraph.t) (f : Summary.fn) : Frontend.finding list =
  let findings = ref [] in
  let add line msg =
    findings := { Frontend.file = f.ffile; line; rule; msg } :: !findings
  in
  let resolve segs =
    Callgraph.resolve ~from_file:f.ffile cg
      (Summary.resolve_call f.fscope segs)
  in
  let h_set ctx ~line ~loc ~value =
    match Dataflow.loc_key loc with
    | Some key when Dataflow.contained_key ctx value = Some key ->
        add line
          (Printf.sprintf
             "plain set of %s stores a value computed from its own atomic \
              read: a concurrent update between the get and this set is \
              lost — use compare_and_set (re-validating the read) or \
              fetch_and_add"
             key)
    | _ -> ()
  in
  let h_call ctx ~line ~segs nargs =
    match resolve segs with
    | Some j
      when (Callgraph.trans_effects cg j).Summary.writes_nonatomically
           && not (Callgraph.cut_edge cg ~from_file:f.ffile j) ->
        let g = Callgraph.fn cg j in
        let keyed =
          List.filter_map
            (fun a ->
              match Dataflow.loc_key a with
              | Some k when Dataflow.fact_of ctx a = None -> Some k
              | _ -> None)
            nargs
        in
        List.iter
          (fun a ->
            match Dataflow.contained_key ctx a with
            | Some k when List.mem k keyed ->
                add line
                  (Printf.sprintf
                     "passes %s together with a value computed from its \
                      atomic read into %s, which stores it with a plain \
                      set — the update does not linearize; use a \
                      CAS-based update"
                     k
                     (String.concat "." g.fpath))
            | _ -> ())
          nargs
    | _ -> ()
  in
  Dataflow.run { Dataflow.no_hooks with h_set; h_call } f.fbody;
  List.rev !findings

let scan (cg : Callgraph.t) : Frontend.finding list =
  Array.to_list (Callgraph.fns cg)
  |> List.concat_map (fun (f : Summary.fn) ->
         if
           Frontend.helping_exempt_path f.ffile
           || Callgraph.is_substrate_file cg f.ffile
         then []
         else scan_fn cg f)
