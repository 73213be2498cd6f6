(** Machine-readable artifacts: the JSON kit every artifact schema
    shares, and the benchmark schema ([BENCH_<panel>.json]).

    One self-contained module: a tiny JSON value type, a printer, a
    minimal recursive-descent parser (enough for artifacts this
    repository writes) and {!Codec}, a two-way codec in which one
    description of a record yields both its encoder and its decoder.
    Each schema is one such description — mound-bench/1 here,
    mound-lint/1 in {!Lint_json}, mound-mutation/1 in {!Mutation_json}
    — and its validator decodes, then checks what the types cannot
    say. No third-party JSON dependency: the formats are small and
    fully under our control.

    Schema ["mound-bench/1"]: the top-level object carries the panel
    name, run configuration (seed / warmup / measured trials /
    ops-per-thread / init size) and a [series] array; each series is one
    structure with per-thread-count [cells]; each cell has a [summary]
    (median / min / max / stddev throughput), the raw measured [trials]
    (per-trial seconds, ops, throughput, start skew and per-thread
    timing points), and the structure's dynamic op [counters] when it
    keeps them. A rank-error sweep adds a [rank] section: one
    {!Rank_exp.row} per (structure, threads) cell. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

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

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

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

(* ------------------------------------------------------------------ *)
(* Two-way codec                                                       *)
(* ------------------------------------------------------------------ *)

(** A value described once: its encoder and decoder both come from the
    description, so each key of a schema is written in one place. A
    decoder raises {!Malformed} naming the path of the field at fault. *)
module Codec = struct
  type 'a t = { enc : 'a -> json; dec : json -> 'a; omit_null : bool }

  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt
  let leaf enc dec = { enc; dec; omit_null = false }

  let int =
    leaf
      (fun n -> Num (float_of_int n))
      (function
        | Num f when Float.of_int (int_of_float f) = f -> int_of_float f
        | _ -> fail "expected an integer")

  let float =
    leaf (fun f -> Num f) (function Num f -> f | _ -> fail "expected a number")

  let string =
    leaf (fun s -> Str s) (function Str s -> s | _ -> fail "expected a string")

  let list c =
    leaf
      (fun xs -> Arr (List.map c.enc xs))
      (function Arr xs -> List.map c.dec xs | _ -> fail "expected an array")

  (** [None] is [null]. *)
  let nullable c =
    leaf
      (function None -> Null | Some x -> c.enc x)
      (function Null -> None | j -> Some (c.dec j))

  (** As an object member, [None] leaves the member out. *)
  let optional c = { (nullable c) with omit_null = true }

  (** A member: its key, its codec and how to read it off the record. *)
  type ('r, 'a) field = string * 'a t * ('r -> 'a)

  (** A record's members in key order; ['k] is the type of the function
      that builds the record from their values. *)
  type ('r, 'k) fields =
    | [] : ('r, 'r) fields
    | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

  let rec members : type r k. (r, k) fields -> r -> (string * json) list =
   fun fs r ->
    match fs with
    | [] -> []
    | (key, c, get) :: fs ->
        let j = c.enc (get r) in
        if c.omit_null && j = Null then members fs r
        else (key, j) :: members fs r

  let rec build : type r k. (r, k) fields -> k -> (string * json) list -> r =
   fun fs make kvs ->
    match fs with
    | [] -> make
    | (key, c, _) :: fs ->
        let v =
          match List.assoc_opt key kvs with
          | None when c.omit_null -> c.dec Null
          | None -> fail "missing %S" key
          | Some j -> ( try c.dec j with Malformed m -> fail "%s: %s" key m)
        in
        build fs (make v) kvs

  (** [obj make fields]: a record as an object with [fields] as its
      members; decoding hands their values to [make], in order. *)
  let obj make fields =
    leaf
      (fun r -> Obj (members fields r))
      (function
        | Obj kvs -> build fields make kvs | _ -> fail "expected an object")

  let decode c j = try Ok (c.dec j) with Malformed m -> Error m
end

(** The first violated check: each pair is a condition a document must
    meet and the error reported when it does not. *)
let require checks =
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, e) -> Error e
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Schema mound-bench/1                                                *)
(* ------------------------------------------------------------------ *)

let schema_version = "mound-bench/1"

type panel = {
  schema : string;
  panel : string;
  seed : int;
  warmup : int;
  measured_trials : int;
  ops_per_thread : int;
  init_size : int;
  series : Real_exp.series list;
  rank : Rank_exp.row list option;  (** a rank-error sweep only *)
}

let panel_codec =
  let counters =
    Codec.(
      obj
        (fun insert_retries insert_backoffs root_fallbacks extract_retries helps
             lock_spins livelock_near_misses deadline_timeouts rejected shed
             lock_recoveries ->
          {
            Mound.Stats.Ops.insert_retries;
            insert_backoffs;
            root_fallbacks;
            extract_retries;
            helps;
            lock_spins;
            livelock_near_misses;
            deadline_timeouts;
            rejected;
            shed;
            lock_recoveries;
          })
        [
          ("insert_retries", int, fun (o : Mound.Stats.Ops.t) ->
            o.insert_retries);
          ("insert_backoffs", int, fun o -> o.insert_backoffs);
          ("root_fallbacks", int, fun o -> o.root_fallbacks);
          ("extract_retries", int, fun o -> o.extract_retries);
          ("helps", int, fun o -> o.helps);
          ("lock_spins", int, fun o -> o.lock_spins);
          ("livelock_near_misses", int, fun o -> o.livelock_near_misses);
          ("deadline_timeouts", int, fun o -> o.deadline_timeouts);
          ("rejected", int, fun o -> o.rejected);
          ("shed", int, fun o -> o.shed);
          ("lock_recoveries", int, fun o -> o.lock_recoveries);
        ])
  in
  let thread_point =
    Codec.(
      obj
        (fun tid start_s stop_s ops -> { Real_exp.tid; start_s; stop_s; ops })
        [
          ("tid", int, fun (p : Real_exp.thread_point) -> p.tid);
          ("start_s", float, fun p -> p.start_s);
          ("stop_s", float, fun p -> p.stop_s);
          ("ops", int, fun p -> p.ops);
        ])
  in
  let trial =
    Codec.(
      obj
        (fun seconds ops throughput skew_s thread_points ->
          { Real_exp.seconds; ops; throughput; skew_s; thread_points })
        [
          ("seconds", float, fun (t : Real_exp.trial) -> t.seconds);
          ("ops", int, fun t -> t.ops);
          ("throughput", float, fun t -> t.throughput);
          ("skew_s", float, fun t -> t.skew_s);
          ("threads", list thread_point, fun t -> t.thread_points);
        ])
  in
  let summary =
    Codec.(
      obj
        (fun median tp_min tp_max stddev ->
          { Real_exp.median; tp_min; tp_max; stddev })
        [
          ("median", float, fun (s : Real_exp.summary) -> s.median);
          ("min", float, fun s -> s.tp_min);
          ("max", float, fun s -> s.tp_max);
          ("stddev", float, fun s -> s.stddev);
        ])
  in
  let cell =
    Codec.(
      obj
        (fun threads summary trials counters ->
          { Real_exp.threads; summary; trials; counters })
        [
          ("threads", int, fun (c : Real_exp.cell) -> c.threads);
          ("summary", summary, fun c -> c.summary);
          ("trials", list trial, fun c -> c.trials);
          ("counters", nullable counters, fun c -> c.counters);
        ])
  in
  let series =
    Codec.(
      obj
        (fun structure cells -> { Real_exp.structure; cells })
        [
          ("structure", string, fun (s : Real_exp.series) -> s.structure);
          ("cells", list cell, fun s -> s.cells);
        ])
  in
  let rank_row =
    Codec.(
      obj
        (fun structure threads extractions empty_returns unmatched mean_error
             max_error ->
          {
            Rank_exp.structure;
            threads;
            stats =
              { extractions; empty_returns; unmatched; mean_error; max_error };
          })
        [
          ("structure", string, fun (r : Rank_exp.row) -> r.structure);
          ("threads", int, fun r -> r.threads);
          ("extractions", int, fun r -> r.stats.extractions);
          ("empty_returns", int, fun r -> r.stats.empty_returns);
          ("unmatched", int, fun r -> r.stats.unmatched);
          ("mean_rank_error", float, fun r -> r.stats.mean_error);
          ("max_rank_error", int, fun r -> r.stats.max_error);
        ])
  in
  Codec.(
    obj
      (fun schema panel seed warmup measured_trials ops_per_thread init_size
           series rank ->
        {
          schema;
          panel;
          seed;
          warmup;
          measured_trials;
          ops_per_thread;
          init_size;
          series;
          rank;
        })
      [
        ("schema", string, fun (d : panel) -> d.schema);
        ("panel", string, fun d -> d.panel);
        ("seed", int, fun d -> d.seed);
        ("warmup", int, fun d -> d.warmup);
        ("measured_trials", int, fun d -> d.measured_trials);
        ("ops_per_thread", int, fun d -> d.ops_per_thread);
        ("init_size", int, fun d -> d.init_size);
        ("series", list series, fun d -> d.series);
        ("rank", optional (list rank_row), fun d -> d.rank);
      ])

(** The schema-["mound-bench/1"] document of one panel run. *)
let of_panel ~panel ~seed ~warmup ~measured_trials ~ops_per_thread ~init_size
    series =
  {
    schema = schema_version;
    panel;
    seed = Int64.to_int seed;
    warmup;
    measured_trials;
    ops_per_thread;
    init_size;
    series;
    rank = None;
  }

(** Decode, then check: the schema tag, a non-empty series of non-empty
    cells, at least 3 and at least [measured_trials] trials per cell,
    [min <= median <= max], positive trial times and non-negative
    throughputs; and in a rank section, non-negative counts,
    [mean_rank_error <= max_rank_error] and one row per (structure,
    threads) cell. *)
let validate (j : json) : (unit, string) result =
  let ( let* ) = Result.bind in
  let* d = Codec.decode panel_codec j in
  let cells =
    List.concat_map
      (fun (s : Real_exp.series) ->
        List.map (fun (c : Real_exp.cell) -> (s.structure, c)) s.cells)
      d.series
  in
  let all_cells p = List.for_all (fun (_, c) -> p c) cells in
  let all_trials p =
    all_cells (fun (c : Real_exp.cell) -> List.for_all p c.trials)
  in
  let* () =
    require
      [
        ( d.schema = schema_version,
          Printf.sprintf "schema tag is not %S" schema_version );
        (d.series <> [], "empty series");
        ( List.for_all (fun (s : Real_exp.series) -> s.cells <> []) d.series,
          "series with no cells" );
        ( all_cells (fun c -> List.length c.trials >= d.measured_trials),
          "cell has fewer trials than measured_trials" );
        ( all_cells (fun c -> List.length c.trials >= 3),
          "cell has fewer than 3 measured trials" );
        ( all_cells (fun { summary = s; _ } ->
              s.tp_min <= s.median && s.median <= s.tp_max),
          "summary violates min <= median <= max" );
        ( all_trials (fun (t : Real_exp.trial) -> t.seconds > 0.),
          "non-positive trial time" );
        (all_trials (fun t -> t.throughput >= 0.), "negative throughput");
      ]
  in
  match d.rank with
  | None -> Ok ()
  | Some rows ->
      let all_stats p =
        List.for_all (fun (r : Rank_exp.row) -> p r.stats) rows
      in
      let row_keys =
        List.map (fun (r : Rank_exp.row) -> (r.structure, r.threads)) rows
      and cell_keys =
        List.map (fun (s, (c : Real_exp.cell)) -> (s, c.threads)) cells
      in
      require
        [
          ( all_stats (fun s ->
                List.for_all (fun n -> n >= 0)
                  [ s.extractions; s.empty_returns; s.unmatched; s.max_error ]),
            "negative rank count" );
          ( all_stats (fun s -> s.mean_error <= float_of_int s.max_error),
            "mean_rank_error above max_rank_error" );
          ( List.sort compare row_keys = List.sort compare cell_keys,
            "rank rows do not match the cells one to one" );
        ]

let cells_of (d : panel) ~structure =
  List.concat_map
    (fun (s : Real_exp.series) ->
      if s.structure = structure then s.cells else [])
    d.series

(** [median_of d ~structure ~threads] — the summary median throughput of
    one cell, if present. *)
let median_of d ~structure ~threads =
  List.find_map
    (fun (c : Real_exp.cell) ->
      if c.threads = threads then Some c.summary.median else None)
    (cells_of d ~structure)

(** [thread_counts_of d ~structure] — the thread counts of the
    structure's cells, in document order. Regression guards key on the
    counts present in {e both} documents under comparison, so a sweep
    recorded on a wider machine (4/8-thread panels) still compares
    cleanly against one recorded on a narrow one. *)
let thread_counts_of d ~structure =
  List.map (fun (c : Real_exp.cell) -> c.threads) (cells_of d ~structure)
