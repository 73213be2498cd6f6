(* Tests for the keyed priority map (decrease-key via lazy deletion). *)

module K = Mound.Keyed.Make (Mound.Int_ord) (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let basics () =
  let m = K.create () in
  check "empty" true (K.pop_min m = None);
  ignore (K.insert m "a" 5);
  ignore (K.insert m "b" 3);
  ignore (K.insert m "c" 9);
  check_int "size" 3 (K.size m);
  check "peek" true (K.peek_min m = Some ("b", 3));
  check "pop b" true (K.pop_min m = Some ("b", 3));
  check "pop a" true (K.pop_min m = Some ("a", 5));
  check "pop c" true (K.pop_min m = Some ("c", 9));
  check "drained" true (K.pop_min m = None)

let decrease_key_wins () =
  let m = K.create () in
  ignore (K.insert m "x" 10);
  ignore (K.insert m "y" 5);
  check "decrease accepted" true (K.decrease_key m "x" 1);
  check "x now first" true (K.pop_min m = Some ("x", 1));
  check "y second" true (K.pop_min m = Some ("y", 5));
  (* stale entry for x at 10 must not resurface *)
  check "no stale" true (K.pop_min m = None)

let increase_ignored () =
  let m = K.create () in
  ignore (K.insert m "x" 3);
  check "worsening rejected" false (K.insert m "x" 7);
  check "priority unchanged" true (K.priority m "x" = Some 3);
  check "pop at 3" true (K.pop_min m = Some ("x", 3))

let reinsert_after_pop () =
  let m = K.create () in
  ignore (K.insert m "x" 4);
  check "pop" true (K.pop_min m = Some ("x", 4));
  check "mem gone" false (K.mem m "x");
  check "reinsert works" true (K.insert m "x" 2);
  check "pop again" true (K.pop_min m = Some ("x", 2))

(* dijkstra on the keyed map equals dijkstra with manual lazy deletion *)
let dijkstra_equivalence () =
  let module Km =
    Mound.Keyed.Make
      (Mound.Int_ord)
      (struct
        type t = int

        let equal = Int.equal
        let hash = Hashtbl.hash
      end)
  in
  let n = 3_000 in
  let rng = Prng.create 23L in
  let adj =
    Array.init n (fun _ ->
        List.init 6 (fun _ -> (Prng.int rng n, 1 + Prng.int rng 50)))
  in
  (* keyed-map version *)
  let dist = Array.make n max_int in
  let m = Km.create () in
  dist.(0) <- 0;
  ignore (Km.insert m 0 0);
  let rec loop () =
    match Km.pop_min m with
    | None -> ()
    | Some (v, d) ->
        List.iter
          (fun (w, len) ->
            if d + len < dist.(w) then begin
              dist.(w) <- d + len;
              ignore (Km.decrease_key m w (d + len))
            end)
          adj.(v);
        loop ()
  in
  loop ();
  (* reference with plain sorted list model *)
  let dist' = Array.make n max_int in
  let module H = Baselines.Seq_heap.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let h = H.create () in
  dist'.(0) <- 0;
  H.insert h (0, 0);
  let rec loop () =
    match H.extract_min h with
    | None -> ()
    | Some (d, v) ->
        if d = dist'.(v) then
          List.iter
            (fun (w, len) ->
              if d + len < dist'.(w) then begin
                dist'.(w) <- d + len;
                H.insert h (d + len, w)
              end)
            adj.(v);
        loop ()
  in
  loop ();
  check "distances agree" true (dist = dist')

let prop_model =
  (* random scripts of insert/decrease/pop against a naive model *)
  QCheck.Test.make ~name:"keyed map matches naive model" ~count:200
    QCheck.(list (pair (int_bound 20) (int_bound 100)))
    (fun script ->
      let m = K.create () in
      let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (k, p) ->
          let key = string_of_int k in
          if p mod 5 = 0 then begin
            (* pop *)
            let want =
              Hashtbl.fold
                (fun k p acc ->
                  match acc with
                  | Some (_, bp) when bp < p -> acc
                  | Some (bk, bp) when bp = p && bk <= k -> acc
                  | _ -> Some (k, p))
                model None
            in
            match (K.pop_min m, want) with
            | None, None -> ()
            | Some (gk, gp), Some (_, wp) ->
                (* tie-breaking on equal priorities is unspecified: only
                   the priority must match *)
                if gp <> wp || Hashtbl.find model gk <> gp then ok := false
                else Hashtbl.remove model gk
            | _ -> ok := false
          end
          else begin
            let changed = K.insert m key p in
            let model_changed =
              match Hashtbl.find_opt model key with
              | Some cur when cur <= p -> false
              | _ ->
                  Hashtbl.replace model key p;
                  true
            in
            if changed <> model_changed then ok := false
          end)
        script;
      !ok && K.size m = Hashtbl.length model)

(* ---- deadline / try / bounded variants (overload tier) ----------------- *)

let ms n = n * 1_000_000

(* A decrease-key storm leaves a pile of stale entries at the head of
   the queue; [pop_min_until]'s deadline is checked between stale
   drops, so a long-gone deadline gives a deterministic [Timeout] per
   stale entry — and no element is ever lost to one. *)
let pop_min_until_storm () =
  let m = K.create () in
  (* one key decreased 100 -> 1 leaves 99 stale entries behind it *)
  ignore (K.insert m "a" 100);
  for p = 99 downto 1 do
    ignore (K.decrease_key m "a" p)
  done;
  check "live head wins" true (K.pop_min m = Some ("a", 1));
  (* the 99 stale entries (2..100,"a") now head the queue; "b" is live *)
  ignore (K.insert m "b" 1000);
  let past = Runtime.Real.monotonic_ns () - ms 1 in
  (* a fresh head is returned even when the deadline is long gone:
     Timeout always means "gave up discarding stale entries" *)
  ignore (K.insert m "c" 1);
  (match K.pop_min_until m ~deadline:past with
  | Mound.Intf.Ok (Some ("c", 1)) -> ()
  | _ -> Alcotest.fail "fresh head must be returned even late");
  (* each expired call drops exactly one stale entry, then times out *)
  let timeouts = ref 0 in
  let rec storm () =
    match K.pop_min_until m ~deadline:past with
    | Mound.Intf.Timeout ->
        incr timeouts;
        storm ()
    | Mound.Intf.Ok (Some ("b", 1000)) -> ()
    | _ -> Alcotest.fail "only b may surface"
  in
  storm ();
  check_int "one stale dropped per timeout" 99 !timeouts;
  check "nothing lost" true (K.pop_min m = None);
  (* no_deadline never expires, whatever the clock says *)
  ignore (K.insert m "d" 7);
  check "no_deadline pops" true
    (K.pop_min_until m ~deadline:Mound.Intf.no_deadline
    = Mound.Intf.Ok (Some ("d", 7)))

(* [insert]'s changed bool distinguishes admitted from refused *)
let insert_changed () =
  let m = K.create () in
  check "new key admitted" true (K.insert m "x" 5);
  check "worsening refused" false (K.insert m "x" 9);
  check "improvement admitted" true (K.insert m "x" 2);
  check "pops at improved priority" true (K.pop_min m = Some ("x", 2))

(* The Bounded front-end over a Keyed-backed queue: the ops record is
   the whole adapter. [extract_approx] degrades to [pop_min] — a
   sequential map has no deep probe — so Shed evicts the current best
   rather than a probably-unimportant victim. *)
let bounded_over_keyed () =
  let module B = Mound.Bounded.Make (Runtime.Real) in
  let keyed_ops : (K.t, string * int) B.ops =
    {
      insert_until =
        (fun m ~deadline:_ (k, p) ->
          if K.insert m k p then Mound.Intf.Ok ()
          else Mound.Intf.Rejected);
      extract_min = K.pop_min;
      extract_min_until = (fun m ~deadline -> K.pop_min_until m ~deadline);
      extract_approx = (fun ~max_level:_ m -> K.pop_min m);
    }
  in
  let b = B.make ~ops:keyed_ops ~capacity:4 ~policy:B.Reject (K.create ()) in
  for i = 1 to 4 do
    match B.insert b (Printf.sprintf "k%d" i, i * 10) with
    | Mound.Intf.Ok () -> ()
    | _ -> Alcotest.fail "under capacity must admit"
  done;
  check "watermark refuses the fifth" true
    (B.insert b ("k5", 50) = Mound.Intf.Rejected);
  check_int "watermark rejection counted" 1 (B.counters b).rejected;
  check "extraction frees a slot" true (B.extract_min b = Some ("k1", 10));
  check_int "occupancy after pop" 3 (B.size b);
  (* a worsening insert is Rejected by the structure, not the
     watermark, and hands its reserved slot back *)
  check "worsening rejected by the structure" true
    (B.insert b ("k2", 99) = Mound.Intf.Rejected);
  check_int "slot handed back" 3 (B.size b);
  check "freed slot readmits" true
    (B.insert b ("k1", 15) = Mound.Intf.Ok ());
  (* Shed over Keyed: room is made by evicting through pop_min *)
  let s = B.make ~ops:keyed_ops ~capacity:2 ~policy:B.Shed (K.create ()) in
  List.iter
    (fun (k, p) ->
      match B.insert s (k, p) with
      | Mound.Intf.Ok () -> ()
      | _ -> Alcotest.fail "shed admits every arrival")
    [ ("s1", 30); ("s2", 20); ("s3", 10) ];
  check_int "one eviction" 1 (B.counters s).shed;
  check_int "held at the watermark" 2 (B.size s)

let () =
  Alcotest.run "keyed"
    [
      ( "keyed map",
        [
          Alcotest.test_case "basics" `Quick basics;
          Alcotest.test_case "decrease_key wins" `Quick decrease_key_wins;
          Alcotest.test_case "increase ignored" `Quick increase_ignored;
          Alcotest.test_case "reinsert after pop" `Quick reinsert_after_pop;
          Alcotest.test_case "dijkstra equivalence" `Quick
            dijkstra_equivalence;
          QCheck_alcotest.to_alcotest prop_model;
        ] );
      ( "overload variants",
        [
          Alcotest.test_case "pop_min_until under stale storm" `Quick
            pop_min_until_storm;
          Alcotest.test_case "insert changed bool" `Quick insert_changed;
          Alcotest.test_case "bounded over keyed" `Quick bounded_over_keyed;
        ] );
    ]
