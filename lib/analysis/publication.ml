(** Publication-safety analysis (rules [stale-publish],
    [post-publish-mutation]).

    The lock-free mound's correctness rests on fresh-copy publication
    (paper Listing 2): every CAS/DCSS installs a {e newly allocated}
    immutable record, and a record that has been published — or was read
    from shared memory — is never mutated in place. Physical equality is
    the ABA defence, so writing through a published record would be a
    racy write other threads can observe half-done, and re-publishing a
    record previously read from a location re-introduces ABA.

    Per function, as a client of the {!Dataflow} pass:

    - a CAS-family fresh-value argument ({!Summary.cas_legs}) that is a
      variable carrying a [Shared_read] fact is flagged [stale-publish] —
      the dirty-bit idiom must go through a fresh copy, not recycle what
      it read;
    - a field assignment [v.f <- e] where [v] was earlier passed as a
      CAS fresh value, or still carries a [Shared_read] fact, is flagged
      [post-publish-mutation] — mutation after (or of) shared state.

    Calls into functions that forward a parameter to a fresh-value slot
    ({!Lf_mound}'s [cas_reusing]/[dcss_reusing]; the {!Summary}
    [publishes] fact) are treated as publication sites for the
    corresponding argument. A [let]-bound local helper resolves to its
    own nested summary.

    Under-approximations, by design: variables without a fact
    (parameters, call results other than [get]) are not tracked;
    [casn]'s operation array is not analyzed; aliasing through data
    structures is invisible. Each can hide a violation, none produces a
    spurious finding — mutants exercise the covered idioms. *)

open Parsetree

let shared_read (ctx : Dataflow.ctx) v =
  match Hashtbl.find_opt ctx.facts v with
  | Some (Dataflow.Shared_read _) -> true
  | _ -> false

let scan_fn (cg : Callgraph.t) (f : Summary.fn) : Frontend.finding list =
  let findings = ref [] in
  let add line rule msg =
    findings := { Frontend.file = f.ffile; line; rule; msg } :: !findings
  in
  (* variable -> line of the CAS that last published it *)
  let published : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let publish ctx line nargs positions =
    List.iter
      (fun i ->
        match Option.map Summary.strip_casts (List.nth_opt nargs i) with
        | Some { pexp_desc = Pexp_ident { txt = Lident v; _ }; _ } ->
            if shared_read ctx v then
              add line "stale-publish"
                (Printf.sprintf
                   "publishes %s, a record read from shared memory; CAS \
                    must install a freshly allocated copy (ABA and torn \
                    observation risk)"
                   v);
            Hashtbl.replace published v line
        | _ -> ())
      positions
  in
  let h_cas ctx ~line ~op nargs =
    publish ctx line nargs
      (List.map (fun (_, _, fresh) -> fresh) (Summary.cas_legs op))
  in
  let h_call ctx ~line ~segs nargs =
    let local =
      match segs with [ name ] -> Callgraph.nested cg f name | _ -> None
    in
    let callee =
      if local <> None then local
      else
        Callgraph.resolve ~from_file:f.ffile cg
          (Summary.resolve_call f.fscope segs)
    in
    Option.iter
      (fun j -> publish ctx line nargs (Callgraph.fn cg j).fpublishes)
      callee
  in
  let h_setfield ctx ~line r =
    match Summary.base_var r with
    | Some v when Hashtbl.mem published v ->
        add line "post-publish-mutation"
          (Printf.sprintf
             "mutates a field of %s after it was published by the CAS at \
              line %d; other threads already see this record — publish a \
              fresh copy instead"
             v (Hashtbl.find published v))
    | Some v when shared_read ctx v ->
        add line "post-publish-mutation"
          (Printf.sprintf
             "mutates a field of %s, which was read from shared memory; \
              in-place writes race with concurrent readers — publish a \
              fresh copy instead"
             v)
    | _ -> ()
  in
  Dataflow.run { Dataflow.no_hooks with h_cas; h_call; h_setfield } f.fbody;
  List.rev !findings

let scan (cg : Callgraph.t) : Frontend.finding list =
  Array.to_list (Callgraph.fns cg)
  |> List.concat_map (fun (f : Summary.fn) ->
         if Frontend.helping_exempt_path f.ffile then []
         else scan_fn cg f)
