(** Drivers for the paper's sequential structure experiments
    (Tables I–IV, §VI-B and §VI-F).

    These run on the sequential mound at full paper scale (2^20
    operations): the tables measure the {e shape} the randomized insertion
    policy produces, which is identical across the sequential and
    concurrent variants since they share the leaf-probing and list-swap
    logic. *)

module S = Mound.Seq_int

type row = { label : string; stats : Mound.Stats.t }

let mound_stats (q : S.t) =
  Mound.Stats.compute
    ~iter:(fun f -> S.fold_nodes q (fun () i l -> f i l) ())
    ~to_float:float_of_int ()

(* ---------- Table I: incomplete levels after 2^20 insertions ---------- *)

let table1 ?(n = 1 lsl 20) ?(seed = 5L) () =
  List.map
    (fun order ->
      let q = S.create ~seed () in
      let keys = Workload.keys ~order ~n ~seed:(Int64.add seed 101L) in
      Array.iter (S.insert q) keys;
      { label = Workload.order_name order; stats = mound_stats q })
    [ Workload.Increasing; Workload.Random_order ]

(* ------- Table II: incomplete levels after many extract-mins ---------- *)

let table2 ?(n = 1 lsl 20) ?(seed = 5L) () =
  let removals = [ n / 4; 3 * n / 4 ] in
  List.concat_map
    (fun order ->
      List.map
        (fun removed ->
          let q = S.create ~seed () in
          let keys = Workload.keys ~order ~n ~seed:(Int64.add seed 101L) in
          Array.iter (S.insert q) keys;
          for _ = 1 to removed do
            ignore (S.extract_min q)
          done;
          {
            label =
              Printf.sprintf "%s %d" (Workload.order_name order) removed;
            stats = mound_stats q;
          })
        removals)
    [ Workload.Increasing; Workload.Random_order ]

(* -- Table III: incomplete levels after 2^20 mixed ops, varying sizes -- *)

let table3_init_bits = [ 8; 16; 20 ]

let table3 ?(ops = 1 lsl 20) ?(seed = 5L) () =
  List.map
    (fun init_bits ->
      let n = 1 lsl init_bits in
      let q = S.create ~seed () in
      let keys =
        Workload.keys ~order:Workload.Random_order ~n
          ~seed:(Int64.add seed 101L)
      in
      Array.iter (S.insert q) keys;
      let rng = Prng.create (Int64.add seed 202L) in
      for _ = 1 to ops do
        if Prng.int rng 2 = 0 then S.insert q (Prng.int rng Workload.key_range)
        else ignore (S.extract_min q)
      done;
      { label = Printf.sprintf "2^%d" init_bits; stats = mound_stats q })
    table3_init_bits

(* - Table IV: per-level avg list size / value after random insertions - *)

let table4 ?(n = 1 lsl 20) ?(seed = 5L) () =
  let q = S.create ~seed () in
  let keys =
    Workload.keys ~order:Workload.Random_order ~n ~seed:(Int64.add seed 101L)
  in
  Array.iter (S.insert q) keys;
  mound_stats q

(* ---------------------------- printing ---------------------------- *)

let pp_row ppf r =
  Format.fprintf ppf "@[<h>%-18s %a@]" r.label Mound.Stats.pp_incomplete
    r.stats

let print_table1 ppf rows =
  Format.fprintf ppf "Table I: incomplete mound levels after insertions@.";
  Format.fprintf ppf "%-18s %s@." "Insert Order" "% Fullness of Non-Full Levels";
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) rows

let print_table2 ppf rows =
  Format.fprintf ppf
    "Table II: incomplete mound levels after extractmins (init 2^20)@.";
  Format.fprintf ppf "%-18s %s@." "Initialization/Ops" "Non-Full Levels";
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) rows

let print_table3 ppf rows =
  Format.fprintf ppf
    "Table III: incomplete levels after 2^20 random ops, varying init size@.";
  Format.fprintf ppf "%-18s %s@." "Initial Size" "Incomplete Levels";
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) rows

let print_table4 ppf (stats : Mound.Stats.t) =
  Format.fprintf ppf
    "Table IV: avg list size and value per level after 2^20 random inserts@.";
  Format.fprintf ppf "%-6s %-10s %-14s %-10s@." "Level" "List Size" "Avg. Value"
    "Nonempty";
  Array.iter
    (fun (lv : Mound.Stats.level) ->
      let avg =
        match Mound.Stats.avg_value lv with
        | None -> "-"
        | Some v ->
            if v >= 1e9 then Printf.sprintf "%.2fB" (v /. 1e9)
            else if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
            else Printf.sprintf "%.0f" v
      in
      Format.fprintf ppf "%-6d %-10.1f %-14s %d/%d@." lv.level
        (Mound.Stats.avg_list_len lv)
        avg lv.nonempty lv.capacity)
    stats.levels
