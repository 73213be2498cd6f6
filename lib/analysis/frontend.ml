(** Parsing front-end of the lint.

    Maps an OCaml source to its located {!Parsetree} via compiler-libs
    ([Parse.implementation] for a [.ml], [Parse.interface] for a
    [.mli]), together with the comments the lexer saw on the way —
    [Lexer.comments ()], which every parse resets — since the waiver
    markers live there. A file that fails to parse yields a single
    finding under the [parse] rule instead of an exception, so one
    broken file cannot hide the findings of the rest of the tree.

    Also home to what every rule shares: the finding record, the
    exempt-path tests, and a total {!flatten}. *)

type finding = { file : string; line : int; rule : string; msg : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

(* Any file with a [runtime] or [sim] directory component may touch the
   forbidden primitives — those layers are the boundary. *)
let exempt_path path =
  String.split_on_char '/' path
  |> List.exists (fun seg -> seg = "runtime" || seg = "sim")

(* [lib/baselines] reproduces third-party algorithms structurally
   faithful to their publications; the mound's helping discipline does
   not bind them (the runtime-boundary rules still do). *)
let helping_exempt_path path =
  exempt_path path
  || String.split_on_char '/' path
     |> List.exists (fun seg -> seg = "baselines")

type parsed = {
  p_path : string;
  p_src : string;
  p_ast : Parsetree.structure;  (** empty for an interface *)
  p_sig : Parsetree.signature;  (** empty for an implementation *)
  p_comments : (string * Location.t) list;
      (** each comment's text between its delimiters, in source order *)
}

(** Module name a file's definitions live under: capitalized basename,
    as the compiler does it ([lf_mound.ml] → [Lf_mound]). *)
let module_name_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

let parse ~path src : (parsed, finding) result =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match
    if Filename.check_suffix path ".mli" then ([], Parse.interface lexbuf)
    else (Parse.implementation lexbuf, [])
  with
  | ast, sg ->
      Ok
        {
          p_path = path;
          p_src = src;
          p_ast = ast;
          p_sig = sg;
          p_comments = Lexer.comments ();
        }
  | exception exn ->
      let line =
        match Location.error_of_exn exn with
        | Some (`Ok err) -> err.main.loc.loc_start.pos_lnum
        | _ -> 1
      in
      Error
        {
          file = path;
          line;
          rule = "parse";
          msg = "source does not parse; AST analyses skipped for this file";
        }

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

(** [Longident.flatten], total: a functor application [F(X).t] keeps
    only its functor's path ([F.t]). The compiler's own version prints
    a fatal error on stderr before it raises on one, and type paths
    reach such applications. *)
let rec flatten : Longident.t -> string list = function
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (l, _) -> flatten l
