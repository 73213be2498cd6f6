(** Machine-readable kill-matrix artifacts — schema [mound-mutation/1].

    Built on {!Bench_json}'s emitter/parser like {!Lint_json}, with the
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
                    "note": ..., "status": "killed" | "survived" |
                    "escalated" | "benign" | "gap",
                    "killed_by": [...], "twin": null | ...,
                    "detail": ...} ] }
    v}

    [count], [killed], [kill_rate] and [rule_kills] are all redundant
    with [mutants] by design, and {!validate} rejects every possible
    mismatch — a hand-edited matrix cannot quietly misreport its own
    kill rate. *)

open Bench_json

let schema_version = "mound-mutation/1"

let statuses = [ "killed"; "survived"; "escalated"; "benign"; "gap" ]

(** One mutant row, decoded. *)
type mrow = {
  mr_id : string;
  mr_op : string;
  mr_file : string;
  mr_line : int;
  mr_note : string;
  mr_status : string;
  mr_killed_by : string list;
  mr_twin : string option;
  mr_detail : string;
}

let doc (k : Analysis.Killmatrix.t)
    (escalations : Mutation_exp.escalation list) : json =
  let status_of (r : Analysis.Killmatrix.row) =
    let id = r.r_mutant.Analysis.Mutate.m_id in
    match
      List.find_opt (fun e -> e.Mutation_exp.e_id = id) escalations
    with
    | Some e -> (e.Mutation_exp.e_status, e.e_twin, e.e_detail)
    | None ->
        if r.r_killed_by <> [] then
          ("killed", None, String.concat "," r.r_killed_by)
        else
          ( "survived",
            Analysis.Killmatrix.twin_of_op r.r_mutant.Analysis.Mutate.m_op,
            "escalation not run" )
  in
  let killed = List.length (Analysis.Killmatrix.killed k) in
  let total = List.length k.k_rows in
  Obj
    [
      ("schema", Str schema_version);
      ("files", Arr (List.map (fun f -> Str f) k.k_files));
      ("rules", Arr (List.map (fun r -> Str r) k.k_rules));
      ( "operators",
        Arr
          (List.map
             (fun (o : Analysis.Mutate.op) ->
               Obj
                 [
                   ("name", Str o.op_name);
                   ("descr", Str o.op_descr);
                   ("rules", Arr (List.map (fun r -> Str r) o.op_rules));
                   ( "twin",
                     match o.op_twin with None -> Null | Some t -> Str t );
                 ])
             Analysis.Mutate.catalog) );
      ("count", Num (float_of_int total));
      ("killed", Num (float_of_int killed));
      ( "kill_rate",
        Num (if total = 0 then 0. else float_of_int killed /. float_of_int total)
      );
      ( "rule_kills",
        Arr
          (List.map
             (fun (rule, n) ->
               Obj [ ("rule", Str rule); ("kills", Num (float_of_int n)) ])
             (Analysis.Killmatrix.rule_kills k)) );
      ( "mutants",
        Arr
          (List.map
             (fun (r : Analysis.Killmatrix.row) ->
               let status, twin, detail = status_of r in
               let m = r.r_mutant in
               Obj
                 [
                   ("id", Str m.Analysis.Mutate.m_id);
                   ("op", Str m.m_op);
                   ("file", Str m.m_file);
                   ("line", Num (float_of_int m.m_line));
                   ("note", Str m.m_note);
                   ("status", Str status);
                   ( "killed_by",
                     Arr (List.map (fun x -> Str x) r.r_killed_by) );
                   ("twin", match twin with None -> Null | Some t -> Str t);
                   ("detail", Str detail);
                 ])
             k.k_rows) );
    ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(** Decode the mutants array; raises {!Bench_json.Malformed} on shape
    errors. *)
let rows_of (j : json) : mrow list =
  match member "mutants" j with
  | Some (Arr ms) ->
      List.map
        (fun m ->
          {
            mr_id = str_exn (member_exn "id" m);
            mr_op = str_exn (member_exn "op" m);
            mr_file = str_exn (member_exn "file" m);
            mr_line = int_exn "line" (member_exn "line" m);
            mr_note = str_exn (member_exn "note" m);
            mr_status = str_exn (member_exn "status" m);
            mr_killed_by =
              str_list_exn "killed_by" (member_exn "killed_by" m);
            mr_twin =
              (match member_exn "twin" m with
              | Null -> None
              | Str t -> Some t
              | _ -> raise (Malformed "twin must be null or a string"));
            mr_detail = str_exn (member_exn "detail" m);
          })
        ms
  | Some _ -> raise (Malformed "mutants must be an array")
  | None -> raise (Malformed "missing \"mutants\"")

let rule_kills_of (j : json) : (string * int) list =
  match member "rule_kills" j with
  | Some (Arr ks) ->
      List.map
        (fun k ->
          ( str_exn (member_exn "rule" k),
            int_exn "kills" (member_exn "kills" k) ))
        ks
  | Some _ -> raise (Malformed "rule_kills must be an array")
  | None -> raise (Malformed "missing \"rule_kills\"")

let validate (j : json) : (unit, string) result =
  let ( let* ) = Result.bind in
  try
    let* () = expect_schema schema_version j in
    let* () = expect_strings "files" j in
    let rules = str_list_exn "rules" (member_exn "rules" j) in
    let rows = rows_of j in
    let* () =
      if List.exists (fun r -> r.mr_line < 1) rows then
        Error "line must be >= 1"
      else Ok ()
    in
    let* () =
      match
        List.find_opt (fun r -> not (List.mem r.mr_status statuses)) rows
      with
      | Some r -> Error (Printf.sprintf "unknown status %S" r.mr_status)
      | None -> Ok ()
    in
    let* () =
      match
        List.find_opt
          (fun r -> r.mr_status = "killed" <> (r.mr_killed_by <> []))
          rows
      with
      | Some r ->
          Error
            (Printf.sprintf "mutant %s: status %S inconsistent with killed_by"
               r.mr_id r.mr_status)
      | None -> Ok ()
    in
    let* () = expect_count "count" (List.length rows) ~what:"mutants" j in
    let killed_rows =
      List.length (List.filter (fun r -> r.mr_status = "killed") rows)
    in
    let* () = expect_count "killed" killed_rows ~what:"killed mutants" j in
    let* () =
      match member "kill_rate" j with
      | Some (Num r) ->
          let want =
            if rows = [] then 0.
            else float_of_int killed_rows /. float_of_int (List.length rows)
          in
          if Float.abs (r -. want) < 1e-9 then Ok ()
          else Error (Printf.sprintf "kill_rate %g does not match %g" r want)
      | _ -> Error "missing kill_rate"
    in
    let kills = rule_kills_of j in
    let* () =
      match List.find_opt (fun ru -> not (List.mem_assoc ru kills)) rules with
      | Some ru -> Error (Printf.sprintf "rule %S missing from rule_kills" ru)
      | None -> Ok ()
    in
    let recount rule =
      List.length (List.filter (fun r -> List.mem rule r.mr_killed_by) rows)
    in
    match
      List.find_opt (fun (rule, n) -> recount rule <> n) kills
    with
    | Some (rule, n) ->
        Error
          (Printf.sprintf "rule_kills[%s] = %d but mutants record %d kills"
             rule n (recount rule))
    | None -> Ok ()
  with Malformed m -> Error m
