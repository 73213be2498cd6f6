(** Source-level lint for the runtime boundary and basic formatting.

    Everything in [lib/] except [lib/runtime] and [lib/sim] must reach
    shared memory, domains, time, and randomness through the {!Runtime}
    functor interface — that is what lets one algorithm run both on real
    hardware and under the deterministic simulator. This module scans
    OCaml sources (comments and string literals stripped) and reports:

    - direct uses of [Stdlib.Atomic], bare [Atomic.], [Domain.],
      [Random.] or [Unix.gettimeofday] outside the runtime layer;
    - [mutable] record fields in a type that the same file publishes
      through an [Atomic.t] cell — such records look atomic but their
      fields are plain racy memory;
    - violations of the helping discipline the lock-free mound depends
      on (rules [cas-discard], [retry-no-backoff]): a compare-and-set
      whose result is silently discarded, and an unbounded retry loop
      around a CAS with neither backoff nor helping. Recognition is by
      naming convention: an identifier containing [help], [moundify] or
      [complete] marks a helping call; one containing [backoff],
      [exponential] or [cpu_relax] marks backoff;
    - allocation inside a CAS retry loop (rule [alloc-in-retry]): in a
      recursive chunk that performs a CAS, an [Array.make]/[Array.init],
      [Bytes.create]/[Bytes.make], [lazy] or [ref]-application token
      after the chunk's [rec] keyword allocates on every retry — the
      hot-path discipline is to hoist the fresh value out of the loop
      and retry with it. Record literals are deliberately not flagged:
      a CAS argument must be a fresh record, and hoisted descriptors
      are rebuilt only when the observed value actually changed;
    - formatting nits that otherwise accumulate: tab characters,
      trailing whitespace, missing final newline.

    A comment that {e begins} with ["lint: allow"] waives findings on
    its own and the following line; one beginning with
    ["lint: allow-file"] waives the whole file's boundary findings
    (formatting still applies). Prose that merely mentions a marker —
    like this paragraph — registers nothing. Every waiver must carry a
    reason after the marker (["lint: allow — setup-only id source"]); a
    reasonless waiver, and a waiver whose covered lines produce no
    finding (stale), are themselves findings under the [waiver] rule —
    which no waiver can silence. The exemption for [lib/runtime] and
    [lib/sim] is by path: any file with a [runtime] or [sim] directory
    component may touch the forbidden primitives — they are the
    boundary. [lib/baselines] is exempt from the helping rules only:
    its files reproduce published third-party algorithms (Hunt heap,
    Lotan–Shavit and lock-free skiplists) whose loops are faithful to
    the originals, and the mound's helping discipline does not apply to
    them. *)

type finding = { file : string; line : int; rule : string; msg : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

(* ---- source preprocessing --------------------------------------------- *)

type stripped = {
  clean : string;
      (* comments and string/char literals blanked out, newlines kept *)
  waived : (int, unit) Hashtbl.t;  (* line numbers covered by a waiver *)
  waivers : (int * int list * bool) list;
      (* each line waiver: its line, the lines it covers, reasoned? *)
  file_waivers : (int * bool) list;  (* each allow-file: line, reasoned? *)
  file_waived : bool;
}

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let has_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

(* A waiver's reason is whatever follows the marker inside the comment;
   demand enough of it to actually say something. *)
let reasoned_after text marker =
  let lt = String.length text and lm = String.length marker in
  let rec find i =
    if i + lm > lt then None
    else if String.sub text i lm = marker then Some (i + lm)
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some j ->
      let alnum = ref 0 in
      String.iter
        (fun c -> if is_ident_char c then incr alnum)
        (String.sub text j (lt - j));
      !alnum >= 8

(* Blank out comments (nested, and containing strings) and string/char
   literals, recording waiver comments as we go. The cleaned buffer has
   the same length and line structure as the source. *)
let strip src =
  let n = String.length src in
  let clean = Bytes.of_string src in
  let waived = Hashtbl.create 8 in
  let waivers = ref [] in
  let file_waivers = ref [] in
  let file_waived = ref false in
  let line = ref 1 in
  let blank i = if Bytes.get clean i <> '\n' then Bytes.set clean i ' ' in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  (* skip a string literal body starting after its opening quote,
     blanking it; returns index past the closing quote *)
  let rec skip_string i =
    if i >= n then i
    else
      let c = src.[i] in
      bump c;
      blank i;
      if c = '\\' && i + 1 < n then begin
        blank (i + 1);
        bump src.[i + 1];
        skip_string (i + 2)
      end
      else if c = '"' then i + 1
      else skip_string (i + 1)
  in
  (* A waiver comment is dedicated: the marker must lead the comment,
     after the opener's asterisks and whitespace. Prose that merely
     mentions a marker mid-sentence registers nothing — otherwise this
     module's own documentation would waive itself. *)
  let leads_with text marker =
    let lt = String.length text and lm = String.length marker in
    let j = ref 2 in
    while
      !j < lt && (text.[!j] = '*' || text.[!j] = ' ' || text.[!j] = '\n')
    do
      incr j
    done;
    !j + lm <= lt && String.sub text !j lm = marker
  in
  let rec skip_comment i depth start =
    if i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      skip_comment (i + 2) (depth + 1) start
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1) start
    end
    else if src.[i] = '"' then begin
      blank i;
      skip_comment (skip_string (i + 1)) depth start
    end
    else begin
      bump src.[i];
      blank i;
      skip_comment (i + 1) depth start
    end
  in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let start_line = !line in
      let from = !i in
      blank !i;
      blank (!i + 1);
      i := skip_comment (!i + 2) 1 !i;
      let text = String.sub src from (min n !i - from) in
      if leads_with text "lint: allow-file" then begin
        file_waived := true;
        file_waivers :=
          (start_line, reasoned_after text "lint: allow-file")
          :: !file_waivers
      end
      else if leads_with text "lint: allow" then begin
        (* a waiver on its own line covers the next code line too *)
        let covered =
          List.sort_uniq compare [ start_line; start_line + 1; !line + 1 ]
        in
        List.iter (fun l -> Hashtbl.replace waived l ()) covered;
        waivers :=
          (start_line, covered, reasoned_after text "lint: allow")
          :: !waivers
      end
    end
    else if c = '"' then begin
      blank !i;
      i := skip_string (!i + 1)
    end
    else if
      (* char literals, so that '"' does not open a string; a bare
         apostrophe after an identifier is a type variable or prime *)
      c = '\''
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
      && !i + 2 < n
      && ((src.[!i + 1] = '\\')
         || (src.[!i + 1] <> '\'' && src.[!i + 2] = '\''))
    then
      if src.[!i + 1] = '\\' then begin
        (* escaped char literal: blank to the closing quote *)
        blank !i;
        incr i;
        while !i < n && src.[!i] <> '\'' do
          bump src.[!i];
          blank !i;
          incr i
        done;
        if !i < n then begin
          blank !i;
          incr i
        end
      end
      else begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        bump src.[!i + 1];
        i := !i + 3
      end
    else begin
      bump c;
      incr i
    end
  done;
  {
    clean = Bytes.to_string clean;
    waived;
    waivers = List.rev !waivers;
    file_waivers = List.rev !file_waivers;
    file_waived = !file_waived;
  }

let line_index src =
  let lines = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then lines := (i + 1) :: !lines) src;
  Array.of_list (List.rev !lines)

let line_of idx off =
  (* binary search: greatest line start <= off *)
  let lo = ref 0 and hi = ref (Array.length idx - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if idx.(mid) <= off then lo := mid else hi := mid - 1
  done;
  !lo + 1

(* ---- runtime-boundary rule -------------------------------------------- *)

let forbidden =
  [
    ("Stdlib.Atomic", "direct Stdlib.Atomic use; go through Runtime");
    ("Atomic.", "bare Atomic module access; go through Runtime");
    ("Domain.", "direct Domain use; only lib/runtime may spawn or relax");
    ("Random.", "ambient Random use; use the runtime's seeded PRNG");
    ("Unix.gettimeofday", "wall-clock read; timing belongs to the harness \
                           runtime layer");
  ]

let exempt_path path =
  String.split_on_char '/' path
  |> List.exists (fun seg -> seg = "runtime" || seg = "sim")

(* [with type 'a Atomic.t = ...] names the signature's own submodule, the
   repo's standard functor-constraint idiom, not an ambient Atomic use. *)
let type_var_before clean off =
  let i = ref (off - 1) in
  while !i >= 0 && clean.[!i] = ' ' do
    decr i
  done;
  !i >= 1 && clean.[!i] = 'a' && clean.[!i - 1] = '\''

let scan_boundary ~path ~file s idx =
  if exempt_path path then []
  else
    List.concat_map
      (fun (pat, msg) ->
        let lp = String.length pat in
        let out = ref [] in
        let off = ref 0 in
        let n = String.length s.clean in
        while !off + lp <= n do
          let at = !off in
          if
            String.sub s.clean at lp = pat
            && (at = 0
               || (not (is_ident_char s.clean.[at - 1]))
                  && s.clean.[at - 1] <> '.')
            && not (pat = "Atomic." && type_var_before s.clean at)
          then
            out := { file; line = line_of idx at; rule = "boundary"; msg }
                   :: !out;
          incr off
        done;
        List.rev !out)
      forbidden

(* ---- mutable-record-behind-Atomic rule -------------------------------- *)

(* Tokenize identifiers-with-dots out of the cleaned source. *)
let tokens clean =
  let n = String.length clean in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident_char clean.[!i] then begin
      let start = !i in
      while
        !i < n && (is_ident_char clean.[!i] || clean.[!i] = '.')
      do
        incr i
      done;
      out := (String.sub clean start (!i - start), start) :: !out
    end
    else incr i
  done;
  List.rev !out

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* Record types declaring [mutable] fields, as (name, line of the first
   mutable field). Purely textual: [type <params>? <name> = {...}]. *)
let mutable_records clean idx =
  let n = String.length clean in
  let out = ref [] in
  List.iter
    (fun (tok, off) ->
      if tok = "type" then begin
        (* the declaration head runs to the first '='; the type's name
           is the last lowercase identifier in it *)
        let eq = ref (off + 4) in
        while !eq < n && clean.[!eq] <> '=' && clean.[!eq] <> ';' do
          incr eq
        done;
        if !eq < n && clean.[!eq] = '=' then begin
          let head = String.sub clean (off + 4) (!eq - off - 4) in
          let name =
            List.fold_left
              (fun acc (t, _) ->
                if t.[0] >= 'a' && t.[0] <= 'z' && t <> "nonrec" then Some t
                else acc)
              None (tokens head)
          in
          (* after '=': a record body? *)
          let k = ref (!eq + 1) in
          while
            !k < n
            && (clean.[!k] = ' ' || clean.[!k] = '\n' || clean.[!k] = '\t')
          do
            incr k
          done;
          match name with
          | Some name when !k < n && clean.[!k] = '{' ->
              let close = ref !k in
              while !close < n && clean.[!close] <> '}' do
                incr close
              done;
              let body = String.sub clean !k (!close - !k) in
              (match List.find_opt (fun (t, _) -> t = "mutable") (tokens body)
               with
              | Some (_, o) -> out := (name, line_of idx (!k + o)) :: !out
              | None -> ())
          | _ -> ()
        end
      end)
    (tokens clean);
  List.rev !out

let scan_mutable_atomic ~file s idx =
  let recs = mutable_records s.clean idx in
  if recs = [] then []
  else
    let toks = tokens s.clean in
    let published name =
      (* [name] immediately followed by a path ending in Atomic.t (or
         an aliased A.t): the record is being put inside an atomic *)
      let rec go = function
        | (t1, _) :: (((t2, _) :: _) as rest) ->
            if
              t1 = name
              && (ends_with ~suffix:"Atomic.t" t2 || t2 = "A.t")
            then true
            else go rest
        | _ -> false
      in
      go toks
    in
    List.filter_map
      (fun (name, line) ->
        if published name then
          Some
            {
              file;
              line;
              rule = "mutable-atomic";
              msg =
                Printf.sprintf
                  "record %s has mutable fields but is published through \
                   an Atomic.t; fields are plain racy memory"
                  name;
            }
        else None)
      recs

(* ---- helping-discipline rules ------------------------------------------ *)

let last_seg tok =
  match String.rindex_opt tok '.' with
  | Some i -> String.sub tok (i + 1) (String.length tok - i - 1)
  | None -> tok

let cas_names = [ "cas"; "casn"; "dcas"; "dcss"; "compare_and_set" ]

(* A CAS {e call} site is a dotted path ([M.cas],
   [R.Atomic.compare_and_set]) that is not the target of a field
   assignment. A bare [cas] is a record label or type field
   ([cas : int], [cas = r.cases]); a dotted token followed by [<-] is a
   counter update ([counters.cas <- 0]). Neither performs a CAS. *)
let is_cas clean (tok, off) =
  List.mem (last_seg tok) cas_names
  && String.contains tok '.'
  &&
  let n = String.length clean in
  let j = ref (off + String.length tok) in
  while !j < n && clean.[!j] = ' ' do
    incr j
  done;
  not (!j + 1 < n && clean.[!j] = '<' && clean.[!j + 1] = '-')

let is_help tok =
  has_sub tok "help" || has_sub tok "moundify" || has_sub tok "complete"

let is_backoff tok =
  has_sub tok "ackoff" || has_sub tok "exponential" || has_sub tok "cpu_relax"

(* Top-level-ish definition chunks: a chunk starts at each [let] that
   begins a line at indentation <= 2 (file scope, or the body of one
   functor/module). [and] continuations stay in the same chunk, so a
   mutually recursive group is judged as a whole. *)
type chunk = { c_line : int; c_toks : (string * int) list; c_rec : bool }

let chunks clean idx =
  let at_margin off =
    let i = ref (off - 1) and ok = ref true and c = ref 0 in
    while !i >= 0 && clean.[!i] <> '\n' do
      if clean.[!i] <> ' ' then ok := false;
      decr i;
      incr c
    done;
    !ok && !c <= 2
  in
  let out = ref [] and cur = ref [] and cur_line = ref 0 in
  let flush () =
    match !cur with
    | [] -> ()
    | toks ->
        let toks = List.rev toks in
        out :=
          {
            c_line = !cur_line;
            c_toks = toks;
            c_rec = List.exists (fun (t, _) -> t = "rec") toks;
          }
          :: !out
  in
  List.iter
    (fun (tok, off) ->
      if tok = "let" && at_margin off then begin
        flush ();
        cur := [];
        cur_line := line_of idx off
      end;
      cur := (tok, off) :: !cur)
    (tokens clean);
  flush ();
  List.rev !out

(* After a CAS in statement-looking position (a [;] precedes it), decide
   whether its value nevertheless flows somewhere: scan {e forward} past
   the call for the first decisive token at bracket depth <= 0. [in],
   [then], [else], [&&], [||] and [|>] mean the CAS ends a sequence whose
   value is bound or tested ([let ok = bump (); M.cas ... in ...] — the
   multiline-split shape that used to false-positive); a further [;],
   [done] or end of file means the value really is dropped. Unmatched
   closing brackets are transparent: the value flows out of the
   parenthesis to whatever consumes it there. *)
let value_consumed_ahead clean off =
  let n = String.length clean in
  let depth = ref 0 in
  let i = ref off in
  let verdict = ref None in
  while !verdict = None && !i < n do
    let c = clean.[!i] in
    if c = '(' || c = '[' || c = '{' then begin
      incr depth;
      incr i
    end
    else if c = ')' || c = ']' || c = '}' then begin
      decr depth;
      incr i
    end
    else if !depth > 0 then incr i
    else if c = ';' then verdict := Some false
    else if c = '&' && !i + 1 < n && clean.[!i + 1] = '&' then
      verdict := Some true
    else if c = '|' && !i + 1 < n && clean.[!i + 1] = '|' then
      verdict := Some true
    else if c = '|' && !i + 1 < n && clean.[!i + 1] = '>' then
      verdict := Some true
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char clean.[!i] do
        incr i
      done;
      match String.sub clean start (!i - start) with
      | "in" | "then" | "else" -> verdict := Some true
      | "done" -> verdict := Some false
      | _ -> ()
    end
    else incr i
  done;
  Option.value !verdict ~default:false

(* Is the CAS-family call at [off] discarded? [ignore (M.cas ...)],
   [let _ = M.cas ...], or statement position after [;] — unless the
   forward scan shows the sequence's value is consumed. *)
let cas_discarded clean off =
  let i = ref (off - 1) in
  let skip_ws () =
    while
      !i >= 0 && (clean.[!i] = ' ' || clean.[!i] = '\n' || clean.[!i] = '\t')
    do
      decr i
    done
  in
  let prev_word () =
    let e = !i in
    while !i >= 0 && is_ident_char clean.[!i] do
      decr i
    done;
    String.sub clean (!i + 1) (e - !i)
  in
  skip_ws ();
  if !i < 0 then false
  else if clean.[!i] = ';' then not (value_consumed_ahead clean off)
  else if clean.[!i] = '(' then begin
    decr i;
    skip_ws ();
    !i >= 0 && is_ident_char clean.[!i] && prev_word () = "ignore"
  end
  else if clean.[!i] = '=' then begin
    decr i;
    skip_ws ();
    !i >= 0 && is_ident_char clean.[!i] && prev_word () = "_"
  end
  else false

(* [lib/baselines] reproduces third-party algorithms structurally
   faithful to their publications; the mound's helping discipline does
   not bind them (the runtime-boundary rules still do). *)
let helping_exempt_path path =
  exempt_path path
  || String.split_on_char '/' path
     |> List.exists (fun seg -> seg = "baselines")

let scan_helping ~path ~file s idx =
  if helping_exempt_path path then []
  else
    List.concat_map
      (fun ch ->
        let has p = List.exists (fun (t, _) -> p t) ch.c_toks in
        let helped = has is_help in
        let has_cas_call = List.exists (is_cas s.clean) ch.c_toks in
        let out = ref [] in
        if ch.c_rec && has_cas_call && (not (has is_backoff)) && not helped
        then
          out :=
            {
              file;
              line = ch.c_line;
              rule = "retry-no-backoff";
              msg =
                "unbounded retry loop around a compare-and-set with \
                 neither backoff nor helping";
            }
            :: !out;
        if not helped then
          List.iter
            (fun (t, off) ->
              if is_cas s.clean (t, off) && cas_discarded s.clean off then
                out :=
                  {
                    file;
                    line = line_of idx off;
                    rule = "cas-discard";
                    msg =
                      "compare-and-set result silently discarded; branch \
                       on it (retry or help) or record why it is \
                       irrelevant";
                  }
                  :: !out)
            ch.c_toks;
        List.rev !out)
      (chunks s.clean idx)

(* ---- allocation-in-retry-loop rule ------------------------------------- *)

let alloc_calls = [ "Array.make"; "Array.init"; "Bytes.create"; "Bytes.make" ]

(* A [ref] token in expression position: preceded by a delimiter (a type
   position, [int ref], follows an identifier) and applied to an
   argument. *)
let ref_application clean off =
  let before =
    let i = ref (off - 1) in
    while !i >= 0 && (clean.[!i] = ' ' || clean.[!i] = '\n') do
      decr i
    done;
    !i < 0 || not (is_ident_char clean.[!i])
  in
  let after =
    let n = String.length clean in
    let j = ref (off + 3) in
    while !j < n && (clean.[!j] = ' ' || clean.[!j] = '\n') do
      incr j
    done;
    !j < n
    && (is_ident_char clean.[!j]
       || clean.[!j] = '(' || clean.[!j] = '[' || clean.[!j] = '{')
  in
  before && after

let is_alloc clean (tok, off) =
  List.exists (fun a -> tok = a || ends_with ~suffix:("." ^ a) tok) alloc_calls
  || tok = "lazy"
  || (tok = "ref" && ref_application clean off)

(* Allocation on the retry path: any allocation token after the [rec]
   keyword of a chunk that performs a CAS runs again on every failed
   attempt. Fresh records for the CAS itself are fine (record literals
   are not tokens); arrays, lazies and refs built per attempt are the
   pattern this PR's hot-path pass removes, so the lint keeps them from
   coming back. *)
let scan_alloc_retry ~path ~file s idx =
  if helping_exempt_path path then []
  else
    List.concat_map
      (fun ch ->
        if not (ch.c_rec && List.exists (is_cas s.clean) ch.c_toks) then []
        else
          let rec_off =
            List.find_map
              (fun (t, off) -> if t = "rec" then Some off else None)
              ch.c_toks
            |> Option.value ~default:0
          in
          List.filter_map
            (fun (t, off) ->
              if off > rec_off && is_alloc s.clean (t, off) then
                Some
                  {
                    file;
                    line = line_of idx off;
                    rule = "alloc-in-retry";
                    msg =
                      Printf.sprintf
                        "%s allocates on every CAS retry; hoist the fresh \
                         value out of the loop and reuse it across attempts"
                        t;
                  }
              else None)
            ch.c_toks)
      (chunks s.clean idx)

(* ---- format rules ------------------------------------------------------ *)

let scan_format ~file src =
  let out = ref [] in
  let add line rule msg = out := { file; line; rule; msg } :: !out in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i l ->
      let ln = i + 1 in
      if String.contains l '\t' then add ln "format" "tab character";
      let len = String.length l in
      if len > 0 && (l.[len - 1] = ' ' || l.[len - 1] = '\t') then
        add ln "format" "trailing whitespace")
    lines;
  let n = String.length src in
  if n > 0 && src.[n - 1] <> '\n' then
    add (List.length lines) "format" "missing final newline";
  List.rev !out

(* ---- entry points ------------------------------------------------------ *)

(* The token scan split in two, so a second engine (the AST analyzer in
   [lib/analysis]) can contribute findings to the {e same} waiver
   machinery: [scan_raw] produces the unfiltered token findings plus the
   stripped-source waiver info; [apply_waivers] filters any finding list
   through those waivers and judges waiver hygiene against the union —
   a waiver covering only an AST-level finding is live, not stale. *)
type raw = {
  raw_base : finding list;  (* token findings, pre-waiver *)
  raw_boundary_all : finding list;
      (* boundary findings before the allow-file filter; the file-waiver
         staleness check needs them *)
  raw_stripped : stripped;
}

let scan_raw ~path src =
  let s = strip src in
  let idx = line_index src in
  let boundary_all =
    scan_boundary ~path ~file:path s idx
    @ scan_mutable_atomic ~file:path s idx
  in
  let boundary = if s.file_waived then [] else boundary_all in
  let base =
    boundary
    @ scan_helping ~path ~file:path s idx
    @ scan_alloc_retry ~path ~file:path s idx
    @ scan_format ~file:path src
  in
  { raw_base = base; raw_boundary_all = boundary_all; raw_stripped = s }

let apply_waivers ~path raw ~extra =
  let s = raw.raw_stripped in
  let base = raw.raw_base @ extra in
  let boundary_all = raw.raw_boundary_all in
  (* Waiver hygiene: a waiver needs a reason and a live finding to
     waive. These findings are not themselves waivable. *)
  let hygiene =
    List.filter_map
      (fun (line, covered, reasoned) ->
        if not reasoned then
          Some
            {
              file = path;
              line;
              rule = "waiver";
              msg =
                "waiver without a reason; say why, e.g. (* lint: allow \
                 — setup-only id source *)";
            }
        else if not (List.exists (fun f -> List.mem f.line covered) base)
        then
          Some
            {
              file = path;
              line;
              rule = "waiver";
              msg = "stale waiver: no finding on the lines it covers";
            }
        else None)
      s.waivers
    @ List.filter_map
        (fun (line, reasoned) ->
          if not reasoned then
            Some
              {
                file = path;
                line;
                rule = "waiver";
                msg = "file waiver without a reason; say why";
              }
          else if boundary_all = [] then
            Some
              {
                file = path;
                line;
                rule = "waiver";
                msg = "stale file waiver: no boundary finding in the file";
              }
          else None)
        s.file_waivers
  in
  List.filter (fun f -> not (Hashtbl.mem s.waived f.line)) base @ hygiene
  |> List.sort (fun a b -> compare (a.line, a.rule) (b.line, b.rule))

let scan ~path src = apply_waivers ~path (scan_raw ~path src) ~extra:[]

let scan_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  scan ~path src

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

let scan_tree root = files_under root |> List.sort compare
                     |> List.concat_map scan_file
