(** Machine-readable lint reports — schema [mound-lint/1].

    One JSON document per [repro lint --json] run, built on
    {!Bench_json}'s emitter/parser (same no-dependency JSON kit as the
    bench artifacts, same self-validation discipline: the emitter
    validates what it is about to print, and the tests parse the
    emitted string back through {!Bench_json.parse} and re-validate).

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

let doc ~roots ~rule (findings : Analysis.finding list) : json =
  Obj
    [
      ("schema", Str schema_version);
      ("roots", Arr (List.map (fun r -> Str r) roots));
      ("rule", match rule with None -> Null | Some r -> Str r);
      ("count", Num (float_of_int (List.length findings)));
      ( "findings",
        Arr
          (List.map
             (fun (f : Analysis.finding) ->
               Obj
                 [
                   ("file", Str f.file);
                   ("line", Num (float_of_int f.line));
                   ("rule", Str f.rule);
                   ("msg", Str f.msg);
                 ])
             findings) );
    ]

(** Decode the findings array; raises {!Bench_json.Malformed} on shape
    errors (missing member, wrong type, non-integral line). *)
let findings_of (j : json) : Analysis.finding list =
  match member "findings" j with
  | Some (Arr fs) ->
      List.map
        (fun f ->
          {
            Analysis.file = str_exn (member_exn "file" f);
            line = int_exn "line" (member_exn "line" f);
            rule = str_exn (member_exn "rule" f);
            msg = str_exn (member_exn "msg" f);
          })
        fs
  | Some _ -> raise (Malformed "findings must be an array")
  | None -> raise (Malformed "missing \"findings\"")

let validate (j : json) : (unit, string) result =
  let ( let* ) = Result.bind in
  try
    let* () = expect_schema schema_version j in
    let* () = expect_strings "roots" j in
    let* () =
      match member "rule" j with
      | Some Null | Some (Str _) -> Ok ()
      | _ -> Error "rule must be null or a string"
    in
    let fs = findings_of j in
    let* () =
      if List.exists (fun (f : Analysis.finding) -> f.line < 1) fs then
        Error "line must be >= 1"
      else Ok ()
    in
    expect_count "count" (List.length fs) ~what:"findings" j
  with Malformed m -> Error m
