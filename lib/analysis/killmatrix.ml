(** Mutant × rule kill matrix over the static rule union.

    For each {!Mutate.mutant}, the mutated source is substituted into
    the pristine file set and the whole set re-scanned — every rule,
    cross-module effects, the real waiver machinery. The scanner itself
    is injected ([Analysis.scan_files] in practice: this module sits
    below the library's main module, so the composition happens there —
    use [Analysis.killmatrix]). The pristine set scans clean (asserted
    by {!run}), so any surviving finding is attributable to the
    mutation: the set of defect rules that fire is the mutant's kill
    set. Hygiene rules ([parse], [format], [waiver]) never earn kill
    credit — byte surgery legitimately orphans a waiver or leaves
    trailing whitespace without saying anything about the defect the
    operator planted.

    Survivors carry the operator's dynamic-twin name when the catalog
    maps one ({!twin_of_op}); running those twins is the harness'
    business ([Harness.Mutation_exp]) — this module stays below the
    harness in the dependency order and only reports the mapping. *)

type scanner = (string * string) list -> Frontend.finding list

type row = {
  r_mutant : Mutate.mutant;
  r_killed_by : string list;  (** defect rules with ≥1 finding, sorted *)
}

type t = {
  k_files : string list;  (** pristine scan context, in scan order *)
  k_rules : string list;  (** rule universe: {!Mutate.target_rules} *)
  k_rows : row list;
}

let hygiene_rules = [ "parse"; "format"; "waiver" ]

exception Dirty_context of Frontend.finding list
(** The pristine file set does not scan clean — kill attribution would
    be meaningless. Carries the pre-existing findings. *)

let kill_set ~(scan : scanner) ~(context : (string * string) list)
    (m : Mutate.mutant) : string list =
  let files =
    List.map
      (fun (p, s) -> if p = m.Mutate.m_file then (p, m.Mutate.m_src) else (p, s))
      context
  in
  scan files
  |> List.filter_map (fun (f : Frontend.finding) ->
         if List.mem f.rule hygiene_rules then None else Some f.rule)
  |> List.sort_uniq compare

(** Run every mutant through the union. Raises {!Dirty_context} if the
    unmutated context has findings of its own. *)
let run ~(scan : scanner) ~(context : (string * string) list)
    (ms : Mutate.mutant list) : t =
  (match
     scan context
     |> List.filter (fun (f : Frontend.finding) ->
            not (List.mem f.rule hygiene_rules))
   with
  | [] -> ()
  | dirty -> raise (Dirty_context dirty));
  {
    k_files = List.map fst context;
    k_rules = Mutate.target_rules;
    k_rows =
      List.map
        (fun m -> { r_mutant = m; r_killed_by = kill_set ~scan ~context m })
        ms;
  }

(** The dynamic twin the catalog maps this operator to, if any. *)
let twin_of_op op =
  match Mutate.find_op op with Some o -> o.Mutate.op_twin | None -> None

(** Escalation status of a matrix row before any twin has run:
    [`Killed rules], [`Escalate twin] (survivor with a mapped dynamic
    program) or [`Gap] (survivor the suite is simply blind to). *)
let triage (r : row) =
  match r.r_killed_by with
  | _ :: _ as rules -> `Killed rules
  | [] -> (
      match twin_of_op r.r_mutant.Mutate.m_op with
      | Some twin -> `Escalate twin
      | None -> `Gap)
