(** Machine-readable lint reports — schema [mound-lint/1].

    One JSON document per [repro lint --json] run, described once with
    {!Bench_json.Codec} (same no-dependency JSON kit as the bench
    artifacts, same self-validation discipline: the emitter validates
    what it is about to print, and the tests parse the emitted string
    back through {!Bench_json.parse} and re-validate).

    Shape:

    {v
    { "schema": "mound-lint/1",
      "roots": ["lib"],
      "rule": null | "aba-risk",
      "count": N,
      "findings": [ {"file": ..., "line": ..., "rule": ..., "msg": ...} ] }
    v}

    [count] is redundant with [findings]' length by design — a consumer
    streaming the array can cross-check truncation, and [validate]
    rejects the mismatch. *)

open Bench_json

let schema_version = "mound-lint/1"

type doc = {
  schema : string;
  roots : string list;
  rule : string option;  (** the [--rule] filter, if any *)
  count : int;
  findings : Analysis.finding list;
}

let codec =
  let finding =
    Codec.(
      obj
        (fun file line rule msg -> { Analysis.file; line; rule; msg })
        [
          ("file", string, fun (f : Analysis.finding) -> f.file);
          ("line", int, fun f -> f.line);
          ("rule", string, fun f -> f.rule);
          ("msg", string, fun f -> f.msg);
        ])
  in
  Codec.(
    obj
      (fun schema roots rule count findings ->
        { schema; roots; rule; count; findings })
      [
        ("schema", string, fun (d : doc) -> d.schema);
        ("roots", list string, fun d -> d.roots);
        ("rule", nullable string, fun d -> d.rule);
        ("count", int, fun d -> d.count);
        ("findings", list finding, fun d -> d.findings);
      ])

let doc ~roots ~rule findings =
  let count = List.length findings in
  { schema = schema_version; roots; rule; count; findings }

(** Decode, then check: the schema tag, non-empty roots, lines from 1,
    [count] against the findings, and each finding's rule registered
    and equal to the document's [rule] filter when it names one. *)
let validate (j : json) : (unit, string) result =
  let ( let* ) = Result.bind in
  let* d = Codec.decode codec j in
  let n = List.length d.findings in
  let all p = List.for_all p d.findings in
  require
    [
      ( d.schema = schema_version,
        Printf.sprintf "schema %S, want %S" d.schema schema_version );
      (d.roots <> [], "roots must be a non-empty array of strings");
      (all (fun f -> f.line >= 1), "line must be >= 1");
      ( d.count = n,
        Printf.sprintf "count %d does not match %d findings" d.count n );
      ( all (fun f -> List.mem_assoc f.rule Analysis.rule_table),
        "finding of an unregistered rule" );
      ( all (fun f -> Option.fold ~none:true ~some:(( = ) f.rule) d.rule),
        "finding outside the rule filter" );
    ]
