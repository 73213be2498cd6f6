(** Linearizability checking of priority-queue histories.

    A history is a set of operations with invocation/response timestamps
    taken from the simulator's virtual clock. The checker is the classic
    Wing & Gong search: repeatedly pick an operation that no other pending
    operation strictly precedes (its response before the candidate's
    invocation), apply it to a sequential sorted-multiset model, and
    recurse; memoizing on the set of applied operations keeps the search
    tractable in practice (the model state is a function of that set,
    because each extract's return value is fixed by the history). *)

type op =
  | Ins of int
  | Ins_many of int list
  | Ext of int option
  | Ext_many of int list

type event = { inv : int; resp : int; op : op }

(** Record one thread's operations against a [Harness.Pq.t] inside a
    simulation; returns the thread body and a closure to collect events
    after the run. [~now] supplies the timestamp clock — the default,
    {!Sim.Sched.now}, is only globally ordered under the default
    smallest-clock policy; schedule explorers pass {!Sim.Sched.events},
    which any policy keeps consistent with execution order. *)
let recorder ?(now = Sim.Sched.now) (q : Pq.t) script =
  let events = ref [] in
  let body =
    List.iter (fun action ->
        let inv = now () in
        let op =
          match action with
          | `Insert v ->
              q.insert v;
              Ins v
          | `Insert_many b ->
              q.insert_many b;
              Ins_many b
          | `Extract -> Ext (q.extract_min ())
          | `Extract_many -> Ext_many (q.extract_many ())
          | `Extract_approx -> Ext (q.extract_approx ())
        in
        let resp = now () in
        events := { inv; resp; op } :: !events)
  in
  ((fun () -> body script), fun () -> !events)

exception Too_large

(** [check events] — is the history linearizable with respect to a
    priority queue initially holding [init]? At most 62 events.

    [rank] (default 1) selects the specification's strictness: an
    extraction may return any of the [rank] smallest elements of the
    model at its linearization point. [rank = 1] is the exact
    priority-queue spec; larger ranks are the relaxed spec satisfied by
    the MultiQueue, whose [extract_min] pops a {e sampled} queue's
    minimum. Emptiness is never relaxed — [Ext None] and [Ext_many []]
    still require an empty model — and every returned element must
    exist, so relaxation never excuses lost or duplicated elements. *)
let check ?(init = []) ?(rank = 1) events =
  let events = Array.of_list events in
  let n = Array.length events in
  if n > 62 then raise Too_large;
  let visited = Hashtbl.create 1024 in
  (* model is an ascending list *)
  let rec insert_sorted v = function
    | [] -> [ v ]
    | x :: rest as l -> if v <= x then v :: l else x :: insert_sorted v rest
  in
  (* Remove each element of the (sorted) [l] from the (sorted) [model]
     multiset; a merge-style walk. *)
  let rec subtract model l =
    match (model, l) with
    | _, [] -> Some model
    | [], _ :: _ -> None
    | m :: mrest, x :: xrest ->
        if m = x then subtract mrest xrest
        else if m < x then
          match subtract mrest l with
          | Some rest -> Some (m :: rest)
          | None -> None
        else None
  in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a <= b && sorted rest
  in
  (* Remove [v] from the (sorted) model if it sits among the first
     [rank] elements. *)
  let rec remove_within k v model =
    match model with
    | [] -> None
    | x :: rest ->
        if x = v then Some rest
        else if k <= 1 then None
        else (
          match remove_within (k - 1) v rest with
          | Some rest' -> Some (x :: rest')
          | None -> None)
  in
  let rec within k v = function
    | [] -> false
    | x :: rest -> x = v || (k > 1 && within (k - 1) v rest)
  in
  let apply model = function
    | Ins v -> Some (insert_sorted v model)
    | Ins_many b ->
        (* a batched insert is atomic at its linearization point: the
           whole multiset lands at once *)
        Some (List.fold_left (fun m v -> insert_sorted v m) model b)
    | Ext None -> if model = [] then Some [] else None
    | Ext (Some v) -> remove_within rank v model
    | Ext_many [] -> if model = [] then Some [] else None
    | Ext_many (hd :: _ as l) ->
        (* an extract-many takes one node's whole sorted list whose head
           is the (rank-relaxed) minimum; the tail is NOT the k smallest *)
        if sorted l && within rank hd model then subtract model l else None
  in
  let rec explore done_mask model =
    if done_mask = (1 lsl n) - 1 then true
    else if Hashtbl.mem visited done_mask then false
    else begin
      let ok = ref false in
      let i = ref 0 in
      while (not !ok) && !i < n do
        let e = events.(!i) in
        if done_mask land (1 lsl !i) = 0 then begin
          (* e may be linearized next iff no other pending op finished
             strictly before e began *)
          let preceded = ref false in
          for j = 0 to n - 1 do
            if j <> !i && done_mask land (1 lsl j) = 0 then
              if events.(j).resp < e.inv then preceded := true
          done;
          if not !preceded then
            match apply model e.op with
            | Some model' ->
                if explore (done_mask lor (1 lsl !i)) model' then ok := true
            | None -> ()
        end;
        incr i
      done;
      if not !ok then Hashtbl.add visited done_mask ();
      !ok
    end
  in
  explore 0 (List.sort compare init)

(** Largest rank {!min_rank} tries. *)
let min_rank_limit = 8

(** Smallest [rank] for which {!check} accepts the history, searched up
    to {!min_rank_limit} — the relaxation a run {e actually} exhibited,
    recorded rather than hoped for. [None] means even the limit does not
    linearize: an element was lost, duplicated, invented, or emptiness
    was misreported, which no rank relaxation excuses. *)
let min_rank ?init events =
  let rec go k =
    if k > min_rank_limit then None
    else if check ?init ~rank:k events then Some k
    else go (k + 1)
  in
  go 1
