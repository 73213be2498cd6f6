(** Structure statistics for the paper's Tables I–IV.

    All statistics are computed at quiescent points from a mound's
    [fold_nodes] iteration (index and per-node sorted list). A level's
    {e fullness} is the fraction of its nodes with a non-empty list —
    Tables I–III report the levels that are not 100% full; Table IV
    reports the average list length and average stored value per level. *)

(** Dynamic operation counters for the concurrent variants: retries,
    helping and backoff, the progress-behaviour numbers that Tables I–IV
    style fullness reports say nothing about. Counters are mutable and
    maintained racily on real domains (diagnostics, not
    synchronization); under the simulator they are exact and
    deterministic. The chaos harness ([repro chaos]) prints them
    alongside the fullness tables. *)
module Ops = struct
  type t = {
    (* lint: allow — diagnostic counters are racy by contract (see the
       module doc): bumps tolerate lost updates and false sharing, and
       padding eleven diagnostic words would bloat every mound; the
       hot-path data planes (Tree's rows) carry the pad blocks *)
    mutable insert_retries : int;
        (** failed candidate validations / CAS / DCSS during insert *)
    mutable insert_backoffs : int;  (** backoff pauses taken by insert *)
    mutable root_fallbacks : int;
        (** inserts that abandoned randomized probing for the
            deterministic root-chain escape hatch *)
    mutable extract_retries : int;  (** failed extraction CAS attempts *)
    mutable helps : int;
        (** operations that completed another thread's work (moundify on
            a node someone else dirtied) *)
    mutable lock_spins : int;
        (** failed lock acquisitions (locking variant only) *)
    mutable livelock_near_misses : int;
        (** retry/spin loops that ran unusually long before succeeding —
            the dynamic shadow of the liveness checker's cycle detector:
            sustained non-progress that eventually resolved *)
    mutable deadline_timeouts : int;
        (** [_until] operations that observed their deadline expire *)
    mutable rejected : int;
        (** operations refused by the bounded front-end's admission
            policy *)
    mutable shed : int;
        (** elements evicted by the bounded front-end's shedding policy *)
    mutable lock_recoveries : int;
        (** expired-lease locks revoked from a presumed-dead holder
            (locking variant only) *)
  }

  let create () =
    {
      insert_retries = 0;
      insert_backoffs = 0;
      root_fallbacks = 0;
      extract_retries = 0;
      helps = 0;
      lock_spins = 0;
      livelock_near_misses = 0;
      deadline_timeouts = 0;
      rejected = 0;
      shed = 0;
      lock_recoveries = 0;
    }

  (** [add into o] accumulates [o]'s counters into [into]: merges
      per-component snapshots (a Bounded front-end's shed/rejected counts
      with the structure's own retries, the runs of a chaos sweep). *)
  let add into o =
    into.insert_retries <- into.insert_retries + o.insert_retries;
    into.insert_backoffs <- into.insert_backoffs + o.insert_backoffs;
    into.root_fallbacks <- into.root_fallbacks + o.root_fallbacks;
    into.extract_retries <- into.extract_retries + o.extract_retries;
    into.helps <- into.helps + o.helps;
    into.lock_spins <- into.lock_spins + o.lock_spins;
    into.livelock_near_misses <-
      into.livelock_near_misses + o.livelock_near_misses;
    into.deadline_timeouts <- into.deadline_timeouts + o.deadline_timeouts;
    into.rejected <- into.rejected + o.rejected;
    into.shed <- into.shed + o.shed;
    into.lock_recoveries <- into.lock_recoveries + o.lock_recoveries

  let pp ppf c =
    Format.fprintf ppf
      "insert retries %d (backoffs %d, root fallbacks %d), extract \
       retries %d, helps %d, lock spins %d, livelock near misses %d, \
       timeouts %d, rejected %d, shed %d, lock recoveries %d"
      c.insert_retries c.insert_backoffs c.root_fallbacks c.extract_retries
      c.helps c.lock_spins c.livelock_near_misses c.deadline_timeouts
      c.rejected c.shed c.lock_recoveries
end

type level = {
  level : int;
  capacity : int;  (** 2^level nodes *)
  nonempty : int;  (** nodes with a non-empty list *)
  elements : int;  (** total elements stored on the level *)
  value_sum : float;  (** sum of all stored values (via [to_float]) *)
  longest_list : int;
}

type t = { levels : level array; depth : int }

(** [compute ~iter ~to_float ()] walks the structure once.
    [iter f] must call [f index list] for every allocated node. *)
let compute ~iter ~to_float () =
  let acc : (int, level) Hashtbl.t = Hashtbl.create 32 in
  let max_level = ref 0 in
  iter (fun i list ->
      let l = Tree.level_of i in
      if l > !max_level then max_level := l;
      let cur =
        match Hashtbl.find_opt acc l with
        | Some c -> c
        | None ->
            {
              level = l;
              capacity = 1 lsl l;
              nonempty = 0;
              elements = 0;
              value_sum = 0.;
              longest_list = 0;
            }
      in
      let len = List.length list in
      let sum = List.fold_left (fun s v -> s +. to_float v) 0. list in
      Hashtbl.replace acc l
        {
          cur with
          nonempty = (cur.nonempty + if len > 0 then 1 else 0);
          elements = cur.elements + len;
          value_sum = cur.value_sum +. sum;
          longest_list = max cur.longest_list len;
        });
  let depth = !max_level + 1 in
  let levels =
    Array.init depth (fun l ->
        match Hashtbl.find_opt acc l with
        | Some c -> c
        | None ->
            {
              level = l;
              capacity = 1 lsl l;
              nonempty = 0;
              elements = 0;
              value_sum = 0.;
              longest_list = 0;
            })
  in
  { levels; depth }

let fullness lv = 100. *. float_of_int lv.nonempty /. float_of_int lv.capacity

let avg_list_len lv =
  if lv.nonempty = 0 then 0.
  else float_of_int lv.elements /. float_of_int lv.capacity

let avg_value lv =
  if lv.elements = 0 then None
  else Some (lv.value_sum /. float_of_int lv.elements)

let total_elements t =
  Array.fold_left (fun s lv -> s + lv.elements) 0 t.levels

let longest_list t =
  Array.fold_left (fun m lv -> max m lv.longest_list) 0 t.levels

(** The levels that are not 100% full, as (level, fullness%) pairs — the
    format of Tables I–III. Trailing all-empty levels are included only if
    allocated and reached. *)
let incomplete_levels t =
  Array.to_list t.levels
  |> List.filter_map (fun lv ->
         if lv.nonempty < lv.capacity then Some (lv.level, fullness lv)
         else None)

(** Render [incomplete_levels] like the paper: "99.96% (17), 97.75% (18)".
    Levels with zero occupancy are dropped. *)
let pp_incomplete ppf t =
  let items =
    incomplete_levels t |> List.filter (fun (_, f) -> f > 0.)
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (fun ppf (l, f) -> Format.fprintf ppf "%.2f%% (%d)" f l)
    ppf items
