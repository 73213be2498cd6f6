(* The substrate layers under the queues, each timed from outside through
   its public functions: Mcas, the Runtime.Real atomics, Prng and Tree on
   1 domain, Mcas and the atomics also contended by 2 domains on shared
   words; plus the GC's minor-collection time from a Runtime_events
   cursor and a fixed host-calibration kernel. Per-call costs are batch
   means (one clock read per batch), since a clock read per call would
   cost as much as the cheapest calls measured. *)

module M = Mcas.Make (Runtime.Real.Atomic)
module T = Mound.Tree.Make (Runtime.Real)

let ns_per_call n f =
  let t0 = Clock.now () in
  for i = 1 to n do
    f i
  done;
  float_of_int (Clock.now () - t0) /. float_of_int n

let words_per_call n f =
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Time and allocation of [n] calls, the allocation from a second pass. *)
let cost n f = (ns_per_call n f, words_per_call n f)

let mcas ~pool ~n =
  let cas_ns =
    let l = M.make 0 in
    ns_per_call n (fun i -> ignore (M.cas l (i - 1) i))
  in
  let dcss =
    let guard = M.make 0 and l = M.make 0 in
    let base = ref 0 in
    cost n (fun i ->
        let v = !base + i in
        ignore (M.dcss guard 0 l (v - 1) v);
        if i = n then base := v)
  in
  let dcas =
    let a = M.make 0 and b = M.make 0 in
    let base = ref 0 in
    cost n (fun i ->
        let v = !base + i in
        ignore (M.dcas a (v - 1) v b (v - 1) v);
        if i = n then base := v)
  in
  (* Two domains on overlapping pairs (a,b) and (b,c): every DCAS
     competes for [b]. *)
  let locs = [| M.make 0; M.make 0; M.make 0 |] in
  let ns = Array.make 2 0. and wins = Array.make 2 0 in
  let start = Pool.barrier 2 in
  Pool.run pool ~domains:2 (fun d ->
      let x = locs.(d) and y = locs.(d + 1) in
      start ();
      let won = ref 0 in
      ns.(d) <-
        ns_per_call n (fun _ ->
            let vx = M.get x and vy = M.get y in
            if M.dcas x vx (vx + 1) y vy (vy + 1) then incr won);
      wins.(d) <- !won);
  [
    ("mcas.cas_ns", cas_ns);
    ("mcas.dcss_ns", fst dcss);
    ("mcas.dcss_words", snd dcss);
    ("mcas.dcas_ns", fst dcas);
    ("mcas.dcas_words", snd dcas);
    ("mcas.dcas_contended_ns", (ns.(0) +. ns.(1)) /. 2.);
    ("mcas.dcas_contended_success", float_of_int (wins.(0) + wins.(1)) /. float_of_int (2 * n));
  ]

let atomics ~pool ~n =
  let a = Runtime.Real.Atomic.make 0 in
  let cas_ns = ns_per_call n (fun i -> ignore (Runtime.Real.Atomic.compare_and_set a (i - 1) i)) in
  let shared = Runtime.Real.Atomic.make 0 and ns = Array.make 2 0. in
  let start = Pool.barrier 2 in
  Pool.run pool ~domains:2 (fun d ->
      start ();
      ns.(d) <-
        ns_per_call n (fun _ ->
            let v = Runtime.Real.Atomic.get shared in
            ignore (Runtime.Real.Atomic.compare_and_set shared v (v + 1))));
  [ ("atomic.cas_ns", cas_ns); ("atomic.cas_contended_ns", (ns.(0) +. ns.(1)) /. 2.) ]

let prng ~n =
  let rng = Prng.create 17L in
  let ns, words = cost n (fun _ -> ignore (Prng.int rng 1_000_000)) in
  [ ("prng.int_ns", ns); ("prng.int_words", words) ]

(* A heap-ordered tree of depth 18 whose node [i] holds the value [i]
   (slots are created in index order), searched for values below the
   first leaf, so every leaf probe succeeds and the cost is one probe
   plus the binary search, as in a mound insert that finds its leaf. *)
let tree ~n =
  let depth = 18 in
  let next = ref 0 in
  let rng = Prng.create 19L in
  let t =
    T.create ~init_depth:depth ~rand:(Prng.int rng) (fun () ->
        incr next;
        !next)
  in
  let first_leaf = 1 lsl (depth - 1) in
  let vals = Array.init n (fun _ -> Prng.int rng first_leaf) in
  let nodes = Array.init n (fun _ -> 1 + Prng.int rng ((1 lsl depth) - 1)) in
  let ge_calls = ref 0 in
  let find_ns =
    ns_per_call n (fun i ->
        let v = vals.(i - 1) in
        let ge j =
          incr ge_calls;
          T.get t j >= v
        in
        ignore (T.find_insert_point_lv t ~ge))
  in
  let get_ns =
    ns_per_call n (fun i ->
        let j = nodes.(i - 1) in
        ignore (T.get_at t ~level:(T.level_of j) j))
  in
  [
    ("tree.find_insert_point_ns", find_ns);
    ("tree.ge_calls_per_find", float_of_int !ge_calls /. float_of_int n);
    ("tree.get_at_ns", get_ns);
  ]

(* Host drift gauge: a fixed, stdlib-only kernel that allocates 2^17
   records, links them into one cycle in a pseudo-random order and chases
   the cycle four times. It touches no code of this repository, so a
   change in its time is the host's: on a 2-vCPU Xeon VM memory-bound
   code drifted by up to 2x over minutes, and this kernel with it. *)
type link = { mutable nx : link; v : int }

let calib_kernel () =
  let t0 = Clock.now () in
  let n = 1 lsl 17 in
  let rec dummy = { nx = dummy; v = 0 } in
  let cells = Array.init n (fun v -> { nx = dummy; v }) in
  let order = Array.init n Fun.id and x = ref 0x2545F491 in
  for i = n - 1 downto 1 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    let j = !x mod (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  for k = 0 to n - 1 do
    cells.(order.(k)).nx <- cells.(order.((k + 1) mod n))
  done;
  let rec chase c k acc = if k = 0 then acc else chase c.nx (k - 1) (acc + c.v) in
  if chase cells.(0) (4 * n) 0 <> 4 * (n * (n - 1) / 2) then failwith "calibration kernel miscomputed";
  float_of_int (Clock.now () - t0) *. 1e-6

(* The kernel on [domains] domains at once, after a full major GC; mean
   ms. Two domains share the memory system the way a 2-domain cell
   does. *)
let calib_ms ~pool ~domains =
  Gc.full_major ();
  let ms = Array.make domains 0. in
  let start = Pool.barrier domains in
  Pool.run pool ~domains (fun d ->
      start ();
      ms.(d) <- calib_kernel ());
  Array.fold_left ( +. ) 0. ms /. float_of_int domains

let substrate ~pool ~n = mcas ~pool ~n @ atomics ~pool ~n @ prng ~n @ tree ~n

(* --- minor-GC time from Runtime_events --------------------------------- *)

(* Time every domain spent inside EV_MINOR phases, and the major-GC
   slices they ran, summed between polls. Reading our own ring buffers
   needs [Runtime_events.start], which makes the runtime write a
   [<pid>.events] file of ~70 MB in the working directory. The runtime
   unlinks it at exit, but one was seen left behind, so it is also
   removed here unless OCAML_RUNTIME_EVENTS_PRESERVE asks to keep it. *)
type gc_events = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  minor_ns : int ref;
  major_slices : int ref;
}

let gc_events () =
  Runtime_events.start ();
  if Sys.getenv_opt "OCAML_RUNTIME_EVENTS_PRESERVE" = None then begin
    let dir = Option.value (Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR") ~default:(Sys.getcwd ()) in
    let ring = Filename.concat dir (Printf.sprintf "%d.events" (Unix.getpid ())) in
    at_exit (fun () -> try Sys.remove ring with Sys_error _ -> ())
  end;
  let began = Hashtbl.create 4 and minor_ns = ref 0 and major_slices = ref 0 in
  let stamp ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let runtime_begin dom ts = function
    | Runtime_events.EV_MINOR -> Hashtbl.replace began dom (stamp ts)
    | EV_MAJOR_SLICE -> incr major_slices
    | _ -> ()
  in
  let runtime_end dom ts = function
    | Runtime_events.EV_MINOR -> (
        match Hashtbl.find_opt began dom with
        | Some t0 ->
            Hashtbl.remove began dom;
            minor_ns := !minor_ns + (stamp ts - t0)
        | None -> ())
    | _ -> ()
  in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
    minor_ns;
    major_slices;
  }

(* Drain the ring buffers; the EV_MINOR ns and major slices seen since
   the last poll. *)
let poll g =
  g.minor_ns := 0;
  g.major_slices := 0;
  ignore (Runtime_events.read_poll g.cursor g.callbacks None);
  (!(g.minor_ns), !(g.major_slices))
