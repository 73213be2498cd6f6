(** Machine-readable benchmark artifacts ([BENCH_<panel>.json]).

    One self-contained module: a tiny JSON value type, an emitter that
    serializes a {!Real_exp} panel run, a minimal recursive-descent
    parser (enough for artifacts this module itself wrote), and a schema
    validator. No third-party JSON dependency — the artifact format is
    small and fully under our control.

    Schema ["mound-bench/1"]: the top-level object carries the panel
    name, run configuration (seed / warmup / measured trials /
    ops-per-thread / init size) and a [series] array; each series is one
    structure with per-thread-count [cells]; each cell has a [summary]
    (median / min / max / stddev throughput), the raw measured [trials]
    (per-trial seconds, ops, throughput, start skew and per-thread
    timing points), and the structure's dynamic op [counters] when it
    keeps them. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let schema_version = "mound-bench/1"

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_string (j : json) =
  let b = Buffer.create 4096 in
  let rec go ind j =
    match j with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr xs ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b (String.make (ind + 2) ' ');
            go (ind + 2) x)
          xs;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make ind ' ');
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b (String.make (ind + 2) ' ');
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\": ";
            go (ind + 2) v)
          kvs;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make ind ' ');
        Buffer.add_char b '}'
  in
  go 0 j;
  Buffer.add_char b '\n';
  Buffer.contents b

let of_counters (o : Mound.Stats.Ops.t) =
  Obj
    [
      ("insert_retries", Num (float_of_int o.insert_retries));
      ("insert_backoffs", Num (float_of_int o.insert_backoffs));
      ("root_fallbacks", Num (float_of_int o.root_fallbacks));
      ("extract_retries", Num (float_of_int o.extract_retries));
      ("helps", Num (float_of_int o.helps));
      ("lock_spins", Num (float_of_int o.lock_spins));
      ("livelock_near_misses", Num (float_of_int o.livelock_near_misses));
      ("deadline_timeouts", Num (float_of_int o.deadline_timeouts));
      ("rejected", Num (float_of_int o.rejected));
      ("shed", Num (float_of_int o.shed));
      ("lock_recoveries", Num (float_of_int o.lock_recoveries));
    ]

let of_trial (t : Real_exp.trial) =
  Obj
    [
      ("seconds", Num t.seconds);
      ("ops", Num (float_of_int t.ops));
      ("throughput", Num t.throughput);
      ("skew_s", Num t.skew_s);
      ( "threads",
        Arr
          (List.map
             (fun (p : Real_exp.thread_point) ->
               Obj
                 [
                   ("tid", Num (float_of_int p.tid));
                   ("start_s", Num p.start_s);
                   ("stop_s", Num p.stop_s);
                   ("ops", Num (float_of_int p.ops));
                 ])
             t.thread_points) );
    ]

let of_cell (c : Real_exp.cell) =
  Obj
    [
      ("threads", Num (float_of_int c.threads));
      ( "summary",
        Obj
          [
            ("median", Num c.summary.median);
            ("min", Num c.summary.tp_min);
            ("max", Num c.summary.tp_max);
            ("stddev", Num c.summary.stddev);
          ] );
      ("trials", Arr (List.map of_trial c.trials));
      ( "counters",
        match c.counters with None -> Null | Some o -> of_counters o );
    ]

let of_series (s : Real_exp.series) =
  Obj
    [
      ("structure", Str s.structure);
      ("cells", Arr (List.map of_cell s.cells));
    ]

(** Serialize one panel run into a schema-["mound-bench/1"] document. *)
let of_panel ~panel ~seed ~warmup ~measured_trials ~ops_per_thread ~init_size
    (series : Real_exp.series list) =
  Obj
    [
      ("schema", Str schema_version);
      ("panel", Str panel);
      ("seed", Num (Int64.to_float seed));
      ("warmup", Num (float_of_int warmup));
      ("measured_trials", Num (float_of_int measured_trials));
      ("ops_per_thread", Num (float_of_int ops_per_thread));
      ("init_size", Num (float_of_int init_size));
      ("series", Arr (List.map of_series series));
    ]

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Malformed of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" lit)
  in
  (* The four hex digits of a [\u] escape at [at]. *)
  let hex4 at =
    let hex c = String.contains "0123456789abcdefABCDEF" c in
    if at + 4 > n || not (String.for_all hex (String.sub s at 4)) then
      fail "bad \\u escape";
    int_of_string ("0x" ^ String.sub s at 4)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "bad escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'r' -> Buffer.add_char b '\r'
               | 'u' ->
                   let hi = hex4 (!pos + 1) in
                   pos := !pos + 4;
                   (* a high surrogate pairs with a following low one *)
                   let lo =
                     if hi land 0xFC00 = 0xD800 && !pos + 2 < n
                        && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u'
                     then hex4 (!pos + 3)
                     else 0
                   in
                   let code =
                     if lo land 0xFC00 <> 0xDC00 then hi
                     else begin
                       pos := !pos + 6;
                       0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                     end
                   in
                   if not (Uchar.is_valid code) then
                     fail "lone surrogate in \\u escape";
                   Buffer.add_utf_8_uchar b (Uchar.of_int code)
               | _ -> fail "bad escape");
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (
          incr pos;
          Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Access + validation                                                 *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let num_exn = function Num f -> f | _ -> raise (Malformed "expected number")
let str_exn = function Str s -> s | _ -> raise (Malformed "expected string")
let arr_exn = function Arr l -> l | _ -> raise (Malformed "expected array")

let member_exn k o =
  match member k o with
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "missing %S" k))

(** An integral number; [what] names the field in the error. *)
let int_exn what j =
  let f = num_exn j in
  if Float.of_int (int_of_float f) <> f then
    raise (Malformed ("non-integral " ^ what));
  int_of_float f

let str_list_exn what = function
  | Arr xs -> List.map str_exn xs
  | _ -> raise (Malformed (what ^ " must be an array of strings"))

(** A non-empty array of strings under key [k], as a check. *)
let expect_strings k j =
  if str_list_exn k (member_exn k j) = [] then
    Error (k ^ " must be a non-empty array of strings")
  else Ok ()

(** The document carries schema tag [want]. *)
let expect_schema want j =
  match member "schema" j with
  | Some (Str s) when s = want -> Ok ()
  | Some (Str s) -> Error (Printf.sprintf "schema %S, want %S" s want)
  | _ -> Error "missing schema tag"

(** The redundant tally under key [k] equals [n], the number of [what]
    the document actually holds. *)
let expect_count k n ~what j =
  match member k j with
  | Some (Num c) when int_of_float c = n -> Ok ()
  | Some (Num c) ->
      Error
        (Printf.sprintf "%s %d does not match %d %s" k (int_of_float c) n what)
  | _ -> Error ("missing " ^ k)

(** Schema check. Returns [Error reason] on the first violation:
    wrong/missing schema tag, missing configuration keys, empty series,
    cells with fewer measured trials than declared (or fewer than 3),
    or summaries violating [min <= median <= max]. *)
let validate (j : json) : (unit, string) result =
  let ( let* ) = Result.bind in
  let req obj k =
    match member k obj with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing key %S" k)
  in
  let num obj k =
    let* v = req obj k in
    match v with
    | Num f -> Ok f
    | _ -> Error (Printf.sprintf "key %S is not a number" k)
  in
  try
    let* schema = req j "schema" in
    if schema <> Str schema_version then
      Error (Printf.sprintf "schema tag is not %S" schema_version)
    else
      let* _panel = req j "panel" in
      let* _seed = num j "seed" in
      let* _warmup = num j "warmup" in
      let* measured = num j "measured_trials" in
      let* _opt = num j "ops_per_thread" in
      let* _init = num j "init_size" in
      let* series = req j "series" in
      let series = arr_exn series in
      if series = [] then Error "empty series"
      else
        List.fold_left
          (fun acc s ->
            let* () = acc in
            let* _name = req s "structure" in
            let* cells = req s "cells" in
            let cells = arr_exn cells in
            if cells = [] then Error "series with no cells"
            else
              List.fold_left
                (fun acc c ->
                  let* () = acc in
                  let* _threads = num c "threads" in
                  let* summary = req c "summary" in
                  let* median = num summary "median" in
                  let* mn = num summary "min" in
                  let* mx = num summary "max" in
                  let* _sd = num summary "stddev" in
                  let* trials = req c "trials" in
                  let trials = arr_exn trials in
                  if List.length trials < int_of_float measured then
                    Error "cell has fewer trials than measured_trials"
                  else if List.length trials < 3 then
                    Error "cell has fewer than 3 measured trials"
                  else if not (mn <= median && median <= mx) then
                    Error "summary violates min <= median <= max"
                  else
                    List.fold_left
                      (fun acc t ->
                        let* () = acc in
                        let* seconds = num t "seconds" in
                        let* _ops = num t "ops" in
                        let* tp = num t "throughput" in
                        if seconds <= 0. then Error "non-positive trial time"
                        else if tp < 0. then Error "negative throughput"
                        else Ok ())
                      (Ok ()) trials)
                (Ok ()) cells)
          (Ok ()) series
  with Malformed m -> Error m

(** [median_of j ~structure ~threads] — the summary median throughput of
    one cell, if present. *)
let median_of (j : json) ~structure ~threads =
  match member "series" j with
  | Some (Arr series) ->
      List.find_map
        (fun s ->
          if member "structure" s = Some (Str structure) then
            match member "cells" s with
            | Some (Arr cells) ->
                List.find_map
                  (fun c ->
                    if member "threads" c = Some (Num (float_of_int threads))
                    then Option.map num_exn (member "median" (
                        match member "summary" c with Some o -> o | None -> Null))
                    else None)
                  cells
            | _ -> None
          else None)
        series
  | _ -> None

(** [thread_counts_of j ~structure] — the thread counts of the
    structure's cells, in document order. Regression guards key on the
    counts present in {e both} documents under comparison, so a sweep
    recorded on a wider machine (4/8-thread panels) still compares
    cleanly against one recorded on a narrow one. *)
let thread_counts_of (j : json) ~structure =
  match member "series" j with
  | Some (Arr series) ->
      List.concat_map
        (fun s ->
          if member "structure" s = Some (Str structure) then
            match member "cells" s with
            | Some (Arr cells) ->
                List.filter_map
                  (fun c ->
                    match member "threads" c with
                    | Some (Num t) -> Some (int_of_float t)
                    | _ -> None)
                  cells
            | _ -> []
          else [])
        series
  | _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let load path = parse (read_file path)
