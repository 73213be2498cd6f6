(** False-sharing layout analysis (rule [layout]).

    Walks every record the analyzed [.ml] files declare — a record type,
    or the inline record of a variant or extension constructor
    ({!File_rules.on_record_fields}) — and flags
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
    by sitting between the hot pair). Touch-counting is by field name,
    from the summaries: a function touches the record when its body
    reads or assigns any of the record's hot field names
    ({!Summary.fn}'s [ftouches]), and it counts as a contention source
    when its transitive effects include [performs_cas] or its body
    calls a primitive RMW ([frmw]). One finding per record, anchored at
    the first offending pair.

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

let scan (parsed : Frontend.parsed list) (cg : Callgraph.t) :
    Frontend.finding list =
  (* field name -> paths of the contention sources touching it *)
  let touchers : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (f : Summary.fn) ->
      if (Callgraph.trans_effects cg i).Summary.performs_cas || f.frmw then
        List.iter
          (fun name ->
            Hashtbl.replace touchers name
              (String.concat "." f.fpath
              :: Option.value (Hashtbl.find_opt touchers name) ~default:[]))
          f.ftouches)
    (Callgraph.fns cg);
  List.concat_map
    (fun (p : Frontend.parsed) ->
      let out = ref [] in
      if
        Filename.check_suffix p.p_path ".ml"
        && not
             (Frontend.helping_exempt_path p.p_path
             || Callgraph.is_substrate_file cg p.p_path)
      then
        File_rules.on_record_fields p (fun ~ty:_ name labels ->
            let rec first_pair = function
              | a :: (b :: _ as rest) ->
                  if hot_label a && hot_label b then Some (a, b)
                  else first_pair rest
              | _ -> None
            in
            match first_pair labels with
            | Some (a, b) ->
                let writers =
                  List.filter hot_label labels
                  |> List.concat_map (fun (l : label_declaration) ->
                         Option.value
                           (Hashtbl.find_opt touchers l.pld_name.txt)
                           ~default:[])
                  |> List.sort_uniq compare
                in
                if List.length writers >= 2 then
                  out :=
                    {
                      Frontend.file = p.p_path;
                      line = Frontend.line_of_loc a.pld_loc;
                      rule;
                      msg =
                        Printf.sprintf
                          "record %s puts hot fields %s and %s on one cache \
                           line (%d CAS/RMW-performing functions touch its \
                           hot fields) — false-sharing risk; put a pad block \
                           between them (Tree's pads idiom) or split the \
                           record"
                          name a.pld_name.txt b.pld_name.txt
                          (List.length writers);
                    }
                    :: !out
            | None -> ());
      List.rev !out)
    parsed
