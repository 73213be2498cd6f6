(** The lint: entry points and rule composition.

    Parses each source once ({!Frontend}: [.ml] and [.mli] alike) and
    runs every rule on that tree: the per-file rules of {!File_rules}
    (runtime boundary, mutable-atomic, format) and the cross-module
    Parsetree analyses ({!Helping}'s retry-loop rule, {!Layout}, and
    the {!Dataflow}-powered {!Publication}, {!Aba_risk} and
    {!Atomicity}). All findings of a file go through the {e same} waiver
    machinery — a [lint: allow] comment with a reason silences any
    finding on its covered lines, and waiver hygiene (reason required,
    stale waivers rejected) is judged against all of them. Co-located
    findings are all reported: each names its own rule. A file that
    does not parse reports [parse] and [format] only.

    Cross-module facts (the call graph, transitive effects) need the
    whole file set at once, so the primary entry is {!scan_files};
    {!scan_trees} feeds it every [.ml]/[.mli] under some roots. Files in
    exempt paths ([runtime], [sim], [baselines]) are still parsed and
    summarized — their definitions ({!Backoff.Make.exponential}) must be
    linkable — but produce no cross-module findings of their own. *)

module Summary = Summary
module Callgraph = Callgraph
module Frontend = Frontend
module Mutate = Mutate
module Killmatrix = Killmatrix

type finding = Frontend.finding = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

let pp_finding = Frontend.pp_finding

(* The single registry every consumer derives from: [repro lint --rule]
   completion, [--list-rules] output, and the README rule table (CI
   compares each row's name and description with it). Adding a rule
   means adding a row here — nothing else can drift. *)
let rule_table : (string * string) list =
  [
    ("stale-publish", "CASes back a value read from the shared structure without re-validation");
    ("post-publish-mutation", "plain field write through a record already published to other threads");
    ("static-retry", "call-graph CAS retry cycle reaching neither helping nor backoff");
    ("aba-risk", "CAS expected value from an un-revalidated read of a recycled location");
    ("atomicity", "plain set stores a value computed from the same location's atomic read");
    ("layout", "adjacent hot fields share a cache line across CAS-performing functions");
    ("parse", "source does not parse; AST analyses skipped for the file");
    ("boundary", "direct OS/clock/domain primitive where the Runtime functor is required");
    ("mutable-atomic", "mutable record field in concurrent code that should be Atomic.t");
    ("alloc-in-retry", "fresh allocation inside a CAS retry loop");
    ("format", "tab/trailing-whitespace/final-newline hygiene");
    ("waiver", "lint: allow marker malformed, reasonless, or stale");
  ]

(* The cross-module findings of a parsed file set, keyed by file.
   Exempt paths contribute summaries but never findings. *)
let cross_module (parsed : Frontend.parsed list) :
    (string, finding list) Hashtbl.t =
  let cg = Callgraph.build (List.concat_map Summary.of_parsed parsed) in
  let all =
    Publication.scan cg @ Helping.scan cg @ Aba_risk.scan cg
    @ Atomicity.scan cg @ Layout.scan parsed cg
  in
  let byfile = Hashtbl.create 16 in
  (* nested functions are walked both standalone and inline in their
     host; identical findings collapse *)
  List.iter
    (fun f ->
      Hashtbl.replace byfile f.file
        (f :: (Hashtbl.find_opt byfile f.file |> Option.value ~default:[])))
    (List.rev (List.sort_uniq compare all));
  byfile

let scan_files (files : (string * string) list) : finding list =
  let parsed = List.map (fun (path, src) -> Frontend.parse ~path src) files in
  let statics = cross_module (List.filter_map Result.to_option parsed) in
  List.concat
    (List.map2
       (fun (path, src) -> function
         | Ok p ->
             File_rules.scan p
               ~extra:
                 (Hashtbl.find_opt statics path |> Option.value ~default:[])
         | Error parse -> parse :: File_rules.format ~path src)
       files parsed)

let scan ~path src = scan_files [ (path, src) ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let scan_file path = scan_files [ (path, read_file path) ]

(** Every [.ml]/[.mli] under [dir], in directory order. *)
let rec files_under dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files_under p
             else if
               Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
  | exception Sys_error _ -> []

(** The lint over every [.ml]/[.mli] under the roots, linked as one
    program: cross-module effect propagation spans all roots. *)
let scan_trees roots : finding list =
  let files =
    List.concat_map files_under roots
    |> List.sort compare
    |> List.map (fun p -> (p, read_file p))
  in
  scan_files files

let scan_tree root = scan_trees [ root ]

(** Mutant × rule kill matrix of [mutants] over the pristine [context]
    file set — the composition {!Killmatrix} itself cannot perform from
    below the library's main module. *)
let killmatrix ~context mutants =
  Killmatrix.run ~scan:scan_files ~context mutants
