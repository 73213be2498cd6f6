(** Helping-discipline v2 (rule [static-retry]).

    The per-file [retry-no-backoff] rule ({!File_rules}) recognizes
    helping by substring — a name containing [help], [moundify] or
    [complete] — which an alias ([let restore = moundify]) or a rename
    defeats in both directions. This pass uses call-graph facts instead:
    a function that is part of a call-graph cycle (an unbounded retry
    loop, whether self-recursive, mutually recursive, or spinning
    through a nested loop) and whose transitive effects include a CAS
    must also transitively reach a {e helping site} (a completing CAS,
    by shape — see {!Summary}) or a {e backoff} ([cpu_relax]). A loop
    reaching neither spins on contention it does nothing to relieve —
    Sundell & Tsigas's livelock-prone shape.

    The substrate cut in {!Callgraph} is what gives the rule teeth:
    {!Mcas} helps internally on every operation, so without the cut any
    client loop around [M.cas] would inherit a vacuous [helps]. With
    it, the client must bring its own helping or backoff — exactly the
    paper's discipline ([insert] backs off, [extract] helps via
    [moundify]).

    Paths exempt from the per-file helping rules ([runtime], [sim],
    [baselines]) are exempt here for the same reasons. *)

let scan (cg : Callgraph.t) : Frontend.finding list =
  let fns = Callgraph.fns cg in
  let out = ref [] in
  Array.iteri
    (fun i (f : Summary.fn) ->
      if not (Frontend.helping_exempt_path f.ffile) then begin
        let eff = Callgraph.trans_effects cg i in
        if
          Callgraph.self_reachable cg i
          && eff.performs_cas
          && (not eff.helps)
          && not eff.backs_off
        then
          out :=
            {
              Frontend.file = f.ffile;
              line = f.fline;
              rule = "static-retry";
              msg =
                Printf.sprintf
                  "retry loop %s performs a CAS but its call graph \
                   reaches neither a helping routine nor a backoff; \
                   help the obstructing operation or back off"
                  (String.concat "." f.fpath);
            }
            :: !out
      end)
    fns;
  List.rev !out
