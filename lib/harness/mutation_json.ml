(** Machine-readable kill-matrix artifacts — schema [mound-mutation/1].

    Described once with {!Bench_json.Codec} like {!Lint_json}, with the
    same self-validation discipline: the emitter validates what it is
    about to print, and the tests parse the emitted string back and
    re-validate.

    Shape:

    {v
    { "schema": "mound-mutation/1",
      "files": ["lib/core/lf_mound.ml", ...],
      "rules": ["aba-risk", ...],
      "operators": [ {"name": ..., "descr": ..., "rules": [...],
                      "twin": null | "size-drift"} ],
      "count": N, "killed": K, "kill_rate": K/N,
      "rule_kills": [ {"rule": ..., "kills": n} ],
      "mutants": [ {"id": ..., "op": ..., "file": ..., "line": ...,
                    "note": ..., "status": "killed" | "escalated" |
                    "benign" | "gap",
                    "killed_by": [...], "twin": null | ...,
                    "detail": ...} ] }
    v}

    [count], [killed], [kill_rate] and [rule_kills] are all redundant
    with [mutants] by design, and {!validate} rejects every possible
    mismatch — a hand-edited matrix cannot quietly misreport its own
    kill rate. *)

open Bench_json

let schema_version = "mound-mutation/1"

let statuses = [ "killed"; "escalated"; "benign"; "gap" ]

type doc = {
  schema : string;
  files : string list;
  rules : string list;
  operators : Analysis.Mutate.op list;
  count : int;
  killed : int;
  kill_rate : float;
  rule_kills : (string * int) list;
  mutants : Mutation_exp.row list;
}

let codec =
  let operator =
    Codec.(
      obj
        (fun op_name op_descr op_rules op_twin ->
          { Analysis.Mutate.op_name; op_descr; op_rules; op_twin })
        [
          ("name", string, fun (o : Analysis.Mutate.op) -> o.op_name);
          ("descr", string, fun o -> o.op_descr);
          ("rules", list string, fun o -> o.op_rules);
          ("twin", nullable string, fun o -> o.op_twin);
        ])
  in
  let rule_kill =
    Codec.(
      obj
        (fun rule kills -> (rule, kills))
        [ ("rule", string, fst); ("kills", int, snd) ])
  in
  let row =
    Codec.(
      obj
        (fun id op file line note status killed_by twin detail ->
          {
            Mutation_exp.id;
            op;
            file;
            line;
            note;
            status;
            killed_by;
            twin;
            detail;
          })
        [
          ("id", string, fun (r : Mutation_exp.row) -> r.id);
          ("op", string, fun r -> r.op);
          ("file", string, fun r -> r.file);
          ("line", int, fun r -> r.line);
          ("note", string, fun r -> r.note);
          ("status", string, fun r -> r.status);
          ("killed_by", list string, fun r -> r.killed_by);
          ("twin", nullable string, fun r -> r.twin);
          ("detail", string, fun r -> r.detail);
        ])
  in
  Codec.(
    obj
      (fun schema files rules operators count killed kill_rate rule_kills
           mutants ->
        {
          schema;
          files;
          rules;
          operators;
          count;
          killed;
          kill_rate;
          rule_kills;
          mutants;
        })
      [
        ("schema", string, fun (d : doc) -> d.schema);
        ("files", list string, fun d -> d.files);
        ("rules", list string, fun d -> d.rules);
        ("operators", list operator, fun d -> d.operators);
        ("count", int, fun d -> d.count);
        ("killed", int, fun d -> d.killed);
        ("kill_rate", float, fun d -> d.kill_rate);
        ("rule_kills", list rule_kill, fun d -> d.rule_kills);
        ("mutants", list row, fun d -> d.mutants);
      ])

(** The document of an escalated matrix over [files], judged against the
    rule universe [rules]. The tallies are computed here, from the rows,
    and nowhere else: [rule_kills] lists every universe rule (at zero
    too, so a silent rule shows), then any other rule a mutant tripped. *)
let doc ~files ~rules (rows : Mutation_exp.row list) =
  let count = List.length rows in
  let killed =
    List.length
      (List.filter (fun (r : Mutation_exp.row) -> r.killed_by <> []) rows)
  in
  let kills rule =
    List.length
      (List.filter (fun (r : Mutation_exp.row) -> List.mem rule r.killed_by)
         rows)
  in
  let extra =
    List.concat_map (fun (r : Mutation_exp.row) -> r.killed_by) rows
    |> List.filter (fun rule -> not (List.mem rule rules))
    |> List.sort_uniq compare
  in
  {
    schema = schema_version;
    files;
    rules;
    operators = Analysis.Mutate.catalog;
    count;
    killed;
    kill_rate =
      (if count = 0 then 0. else float_of_int killed /. float_of_int count);
    rule_kills = List.map (fun rule -> (rule, kills rule)) (rules @ extra);
    mutants = rows;
  }

(** Decode, then check: the schema tag, non-empty files, per mutant a
    line from 1, a known status and the [killed] status exactly when
    [killed_by] is non-empty, and every tally equal to {!doc}'s over the
    rows. *)
let validate (j : json) : (unit, string) result =
  let ( let* ) = Result.bind in
  let* d = Codec.decode codec j in
  let row_error (r : Mutation_exp.row) =
    if r.line < 1 then Some "line must be >= 1"
    else if not (List.mem r.status statuses) then
      Some (Printf.sprintf "unknown status %S" r.status)
    else if r.status = "killed" <> (r.killed_by <> []) then
      Some (Printf.sprintf "status %S inconsistent with killed_by" r.status)
    else None
  in
  let* () =
    match
      List.find_map
        (fun (r : Mutation_exp.row) ->
          Option.map (Printf.sprintf "mutant %s: %s" r.id) (row_error r))
        d.mutants
    with
    | Some e -> Error e
    | None -> Ok ()
  in
  let want = doc ~files:d.files ~rules:d.rules d.mutants in
  require
    [
      ( d.schema = schema_version,
        Printf.sprintf "schema %S, want %S" d.schema schema_version );
      (d.files <> [], "files must be a non-empty array of strings");
      ( d.count = want.count,
        Printf.sprintf "count %d does not match %d mutants" d.count want.count
      );
      ( d.killed = want.killed,
        Printf.sprintf "killed %d does not match %d killed mutants" d.killed
          want.killed );
      ( Float.abs (d.kill_rate -. want.kill_rate) < 1e-9,
        Printf.sprintf "kill_rate %g does not match %g" d.kill_rate
          want.kill_rate );
      ( d.rule_kills = want.rule_kills,
        "rule_kills do not match the mutants' kills" );
    ]
