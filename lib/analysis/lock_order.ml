(** Lock-leak analysis (rule [lock-leak]).

    The locking mound takes node locks hand over hand (paper Listing 3)
    and must hand back every one it takes. This analysis walks each
    function body in evaluation order with an abstract lock state and
    flags a non-raising path that reaches the end of the function with
    a lock still held and no release in sight. Acquisition {e order}
    (ancestor before descendant) is checked dynamically: the liveness
    tier's lock-inversion programs deadlock under a fair schedule.

    Soundness caveats (documented over/under-approximation):
    - a call to any function that transitively releases a lock is
      assumed to discharge {e every} held lock — the hand-over-hand
      idiom hands the whole chain to the callee (under-approximates
      leaks through such calls);
    - functions that acquire inside a closure passed to a higher-order
      function (the STM commit's write-set fold) are skipped entirely —
      the walk cannot track per-iteration state (under-approximates);
    - acquire/release primitives themselves (bodies performing the
      locking CAS / unlocking store) are exempt: they are the mechanism
      being built, not users of it;
    - branches are explored independently and joined by union, so a
      lock provably released on every branch is not a leak, and state
      explosion is capped — beyond the cap the function is skipped. *)

open Parsetree

type held = { hkey : string; hline : int }

let max_states = 64

let arg_var e =
  match (Summary.strip_casts e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | _ -> None

exception Give_up

let scan_fn (cg : Callgraph.t) (f : Summary.fn) : Frontend.finding list =
  (* extra venv for functions let-bound inside this body *)
  let extra = ref [] in
  let resolve segs =
    let scope =
      { f.fscope with Summary.venv = !extra @ f.fscope.Summary.venv }
    in
    Callgraph.resolve ~from_file:f.ffile cg (Summary.resolve_call scope segs)
  in
  let closure_acquire = ref false in
  (* detect acquisitions inside closure arguments: per-iteration lock
     state is beyond this walk, skip such functions wholesale *)
  let rec detect in_closure e =
    match e.pexp_desc with
    | Pexp_apply (head, args) ->
        (match Summary.flatten_ident head with
        | Some segs when in_closure -> (
            match resolve segs with
            | Some j
              when (Callgraph.fn cg j).flock_param <> None
                   && (Callgraph.fn cg j).fdirect.acquires_lock ->
                closure_acquire := true
            | _ -> ())
        | _ -> ());
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> detect true a
            | _ -> detect in_closure a)
          args;
        detect in_closure head
    | _ ->
        (* default_iterator-free shallow recursion *)
        iter_children (detect in_closure) e
  and iter_children g e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        List.iter (fun vb -> g vb.pvb_expr) vbs;
        g cont
    | Pexp_sequence (a, b) ->
        g a;
        g b
    | Pexp_ifthenelse (c, t, e) ->
        g c;
        g t;
        Option.iter g e
    | Pexp_match (s, cs) | Pexp_try (s, cs) ->
        g s;
        List.iter (fun c -> g c.pc_rhs) cs
    | Pexp_function cs -> List.iter (fun c -> g c.pc_rhs) cs
    | Pexp_fun (_, _, _, b)
    | Pexp_lazy b
    | Pexp_newtype (_, b)
    | Pexp_constraint (b, _)
    | Pexp_open (_, b)
    | Pexp_assert b ->
        g b
    | Pexp_while (a, b) | Pexp_setfield (a, _, b) ->
        g a;
        g b
    | Pexp_for (_, a, b, _, c) ->
        g a;
        g b;
        g c
    | Pexp_record (fs, base) ->
        List.iter (fun (_, v) -> g v) fs;
        Option.iter g base
    | Pexp_tuple es | Pexp_array es -> List.iter g es
    | Pexp_construct (_, a) | Pexp_variant (_, a) -> Option.iter g a
    | Pexp_apply (h, args) ->
        g h;
        List.iter (fun (_, a) -> g a) args
    | _ -> ()
  in
  detect false f.fbody;
  if !closure_acquire then []
  else begin
    (* evaluation-order walk; [states] is the disjunction of the held
       lock sets reaching the current point; raising paths vanish *)
    let rec walk states e : held list list =
      if List.length states > max_states then raise Give_up;
      let e = Summary.strip_casts e in
      match e.pexp_desc with
      | Pexp_let (_, vbs, cont) ->
          let states =
            List.fold_left
              (fun sts vb ->
                let ps, _ = Summary.fn_shape vb.pvb_expr in
                match Summary.pat_var vb.pvb_pat with
                | Some name when ps <> [] ->
                    (* nested function: callable later, body analyzed as
                       its own summary elsewhere *)
                    extra := (name, f.fpath @ [ name ]) :: !extra;
                    sts
                | _ -> walk sts vb.pvb_expr)
              states vbs
          in
          walk states cont
      | Pexp_sequence (a, b) -> walk (walk states a) b
      | Pexp_ifthenelse (c, t, el) -> (
          let states = walk states c in
          let st = walk states t in
          match el with
          | Some el -> st @ walk states el
          | None -> st @ states)
      | Pexp_match (s, cases) | Pexp_try (s, cases) ->
          let states = walk states s in
          List.concat_map (fun c -> walk states c.pc_rhs) cases
      | Pexp_while (c, b) ->
          let states = walk states c in
          states @ walk states b
      | Pexp_for (_, a, b, _, body) ->
          let states = walk (walk states a) b in
          states @ walk states body
      | Pexp_apply (head, args) -> (
          let states =
            List.fold_left
              (fun sts (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ -> sts (* closures: no acquires inside, per [detect] *)
                | _ -> walk sts a)
              states args
          in
          match Summary.flatten_ident head with
          | None -> walk states head
          | Some segs -> (
              let last = List.nth segs (List.length segs - 1) in
              if List.mem last Summary.raising_heads && List.length segs = 1
              then [] (* raise/failwith/invalid_arg: path ends *)
              else
                match resolve segs with
                | None -> states
                | Some j ->
                    let g = Callgraph.fn cg j in
                    let nargs = Summary.nolabel_args args in
                    if g.flock_param <> None && g.fdirect.acquires_lock
                    then
                      let key =
                        Option.bind
                          (List.nth_opt nargs (Option.get g.flock_param))
                          arg_var
                        |> Option.value ~default:"?"
                      in
                      let h =
                        { hkey = key; hline = Frontend.line_of_loc e.pexp_loc }
                      in
                      List.map (fun locks -> h :: locks) states
                    else if g.funlock_param <> None then
                      let k = Option.get g.funlock_param in
                      let key =
                        match List.nth_opt nargs k with
                        | Some a -> arg_var a
                        | None -> None
                      in
                      List.map
                        (List.filter (fun h -> Some h.hkey <> key))
                        states
                    else if (Callgraph.trans_effects cg j).releases_lock
                    then
                      (* hand-over-hand: the callee owns every held lock
                         now (moundify, or the recursive retry) *)
                      List.map (fun _ -> []) states
                    else states))
      | Pexp_assert a -> (
          match (Summary.strip_casts a).pexp_desc with
          | Pexp_construct ({ txt = Lident "false"; _ }, None) -> []
          | _ -> walk states a)
      | Pexp_fun _ | Pexp_function _ -> states
      | Pexp_lazy a | Pexp_newtype (_, a) | Pexp_open (_, a) ->
          walk states a
      | Pexp_setfield (r, _, v) -> walk (walk states r) v
      | Pexp_record (fs, base) ->
          let states =
            List.fold_left (fun sts (_, v) -> walk sts v) states fs
          in
          (match base with Some b -> walk states b | None -> states)
      | Pexp_tuple es | Pexp_array es ->
          List.fold_left walk states es
      | Pexp_construct (_, a) | Pexp_variant (_, a) -> (
          match a with Some a -> walk states a | None -> states)
      | Pexp_field (a, _) -> walk states a
      | _ -> states
    in
    match walk [ [] ] f.fbody with
    | exception Give_up -> []
    | final ->
        let leaked = Hashtbl.create 4 in
        List.concat final
        |> List.filter_map (fun h ->
               if Hashtbl.mem leaked h.hline then None
               else begin
                 Hashtbl.replace leaked h.hline ();
                 Some
                   {
                     Frontend.file = f.ffile;
                     line = h.hline;
                     rule = "lock-leak";
                     msg =
                       Printf.sprintf
                         "lock on %s acquired here can reach the end of %s \
                          still held; release it on every non-raising path"
                         h.hkey
                         (String.concat "." f.fpath);
                   }
               end)
  end

let scan (cg : Callgraph.t) : Frontend.finding list =
  Array.to_list (Callgraph.fns cg)
  |> List.concat_map (fun (f : Summary.fn) ->
         if Frontend.helping_exempt_path f.ffile then []
         else if
           (* the locking primitives themselves are the mechanism *)
           f.fdirect.acquires_lock || f.fdirect.releases_lock
         then []
         else scan_fn cg f)
