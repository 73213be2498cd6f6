(* One structure on one workload: the closed-loop load generator, the
   per-trial set-up, and the checks of every trial's outputs.

   Each domain issues its next queue call only after the previous one
   returned. Untraced, one call in 16 is timed into a latency histogram;
   traced, every call is recorded as a span (see [Spans]). *)

module type QUEUE = sig
  type t

  val name : string
  val exact : bool  (* an exact priority queue, not a relaxed one *)
  val create : domains:int -> seed:int -> t
  val insert : t -> int -> unit
  val extract_min : t -> int option
  val check : t -> bool
  val depth : t -> int
  val fold_nodes : t -> ('a -> int -> int list -> 'a) -> 'a -> 'a
  val ops : t -> Mound.Stats.Ops.t option
end

let queues : (module QUEUE) list =
  [
    (module struct
      include Mound.Seq_int

      let name = "seq"
      let exact = true
      let create ~domains:_ ~seed = create ~seed:(Int64.of_int seed) ()
      let ops _ = None
    end);
    (module struct
      include Mound.Lf_int

      let name = "lf"
      let exact = true
      let create ~domains:_ ~seed:_ = create ()
      let ops t = Some (ops t)
    end);
    (module struct
      include Mound.Lock_int

      let name = "lock"
      let exact = true
      let create ~domains:_ ~seed:_ = create ()
      let ops t = Some (ops t)
    end);
    (module struct
      include Mound.Multiqueue_int

      let name = "mq"
      let exact = false
      let create ~domains ~seed = create ~domains ~seed:(Int64.of_int seed) ()
      let ops t = Some (ops t)
    end);
  ]

let name (module Q : QUEUE) = Q.name

type workload = Insert | Drain | Mixed | Sssp

let workloads = [ Insert; Drain; Mixed; Sssp ]

let workload_name = function
  | Insert -> "insert"
  | Drain -> "drain"
  | Mixed -> "mixed"
  | Sssp -> "sssp"

(* Inputs of one workload, generated once per run from the seed. *)
type input =
  | Keys of int array  (** insert: the keys, split across the domains *)
  | Prefilled of int array  (** drain: pre-fill, then extract to empty *)
  | Script of int array * int array  (** mixed: pre-fill, operation script *)
  | Graph of Inputs.graph * int array  (** sssp: graph, reference distances *)

(* Per-domain accumulators, written only by their own domain and read
   after the trial. *)
type ctx = {
  hins : Hist.t;
  hext : Hist.t;
  spans : Spans.t;
  mutable t_start : int;
  mutable t_stop : int;
  mutable inserts : int;
  mutable extracts : int;  (** extract_min calls, empty ones included *)
  mutable empties : int;
  mutable pops : int;  (** extract_min calls that returned an element *)
  mutable ext_sum : int;
  mutable sorted : bool;
  mutable words : float;
}

let ctx spans =
  {
    hins = Hist.create ();
    hext = Hist.create ();
    spans;
    t_start = 0;
    t_stop = 0;
    inserts = 0;
    extracts = 0;
    empties = 0;
    pops = 0;
    ext_sum = 0;
    sorted = true;
    words = 0.;
  }

let reset c =
  Hist.clear c.hins;
  Hist.clear c.hext;
  Spans.reset c.spans;
  c.inserts <- 0;
  c.extracts <- 0;
  c.empties <- 0;
  c.pops <- 0;
  c.ext_sum <- 0;
  c.sorted <- true

type trial = {
  structure : string;
  domains : int;
  traced : bool;
  failure : string option;  (** the first failed check, if any *)
  calls : int;
  inserts : int;
  extracts : int;
  empties : int;
  pops : int;
  elements : int;  (** elements moved; on sssp, vertices settled *)
  seconds : float;  (** union of the domains' op windows *)
  overlap : float;  (** their intersection over their union *)
  setup_s : float;  (** queue creation and pre-fill *)
  calib_ms : float;  (** host calibration around the trial; the caller fills it in *)
  hins : Hist.t;  (** insert latency: sampled, or every call when traced *)
  hext : Hist.t;
  words : float;  (** minor words allocated by the domains in the window *)
  busy_s : float;  (** traced: time inside queue calls, all domains *)
  window_s : float;  (** the domains' windows summed *)
  dropped : int;  (** spans lost to full buffers *)
  depth : int;
  bytes_per_elem : float;  (** nan unless measured *)
  counters : Mound.Stats.Ops.t option;
  minor_gcs : int;
}

(* CAS [cell] down to [nd] if that lowers it; explicit-parameter
   recursion so relaxing an edge allocates no closure. *)
let rec lower cell nd =
  let cur = Atomic.get cell in
  nd < cur && (Atomic.compare_and_set cell cur nd || lower cell nd)

let slice n d domains = (n * d / domains, n * (d + 1) / domains)
let sum a = Array.fold_left ( + ) 0 a
let live_bytes q = float_of_int (Obj.reachable_words (Obj.repr q) * (Sys.word_size / 8))

module Make (Q : QUEUE) = struct
  let[@inline] ins c ~traced q k i =
    if traced then begin
      let t0 = Clock.now () in
      Q.insert q k;
      Spans.add c.spans Spans.insert t0 (Clock.now ())
    end
    else if i land 15 = 0 then begin
      let t0 = Clock.now () in
      Q.insert q k;
      Hist.add c.hins (Clock.now () - t0)
    end
    else Q.insert q k

  let[@inline] ext c ~traced q i =
    if traced then begin
      let t0 = Clock.now () in
      let r = Q.extract_min q in
      Spans.add c.spans Spans.extract t0 (Clock.now ());
      r
    end
    else if i land 15 = 0 then begin
      let t0 = Clock.now () in
      let r = Q.extract_min q in
      Hist.add c.hext (Clock.now () - t0);
      r
    end
    else Q.extract_min q

  let run_insert c ~traced q keys ~lo ~hi =
    for i = lo to hi - 1 do
      ins c ~traced q (Array.unsafe_get keys i) (i - lo)
    done;
    c.inserts <- hi - lo

  let run_drain c ~traced q =
    let rec go i last sum sorted =
      match ext c ~traced q i with
      | Some k -> go (i + 1) k (sum + k) (sorted && k >= last)
      | None ->
          c.extracts <- i + 1;
          c.empties <- 1;
          c.pops <- i;
          c.ext_sum <- sum;
          c.sorted <- sorted
    in
    go 0 min_int 0 true

  let run_mixed c ~traced q script ~lo ~hi =
    let inserts = ref 0 and extracts = ref 0 and empties = ref 0 and s = ref 0 in
    for i = lo to hi - 1 do
      let op = Array.unsafe_get script i in
      if op <> Inputs.extract then begin
        ins c ~traced q op (i - lo);
        incr inserts
      end
      else begin
        incr extracts;
        match ext c ~traced q (i - lo) with
        | Some k -> s := !s + k
        | None -> incr empties
      end
    done;
    c.inserts <- !inserts;
    c.extracts <- !extracts;
    c.empties <- !empties;
    c.pops <- !extracts - !empties;
    c.ext_sum <- !s

  (* Label-correcting parallel Dijkstra. [pending] counts keys inserted
     but not yet fully processed: a domain bumps it before inserting and
     drops it only after relaxing the popped vertex's edges, so it reads
     0 only when the queue is empty and no domain can refill it. *)
  let run_sssp c ~traced q (g : Inputs.graph) dist pending =
    let calls = ref 0 and pops = ref 0 and empties = ref 0 and inserts = ref 0 in
    let running = ref true in
    while !running do
      let i = !calls in
      incr calls;
      match ext c ~traced q i with
      | Some key ->
          incr pops;
          let du = key lsr Inputs.vertex_bits and u = key land Inputs.vertex_mask in
          if du = Atomic.get (Array.unsafe_get dist u) then
            for e = u * g.degree to ((u + 1) * g.degree) - 1 do
              let w = Array.unsafe_get g.target e in
              let nd = du + Array.unsafe_get g.weight e in
              if lower (Array.unsafe_get dist w) nd then begin
                Atomic.incr pending;
                ins c ~traced q (Inputs.encode ~dist:nd w) !inserts;
                incr inserts
              end
            done;
          Atomic.decr pending
      | None ->
          incr empties;
          if Atomic.get pending = 0 then running := false else Domain.cpu_relax ()
    done;
    c.inserts <- !inserts;
    c.extracts <- !calls;
    c.empties <- !empties;
    c.pops <- !pops

  (* Elements left in the queue, and their key sum. *)
  let contents q = Q.fold_nodes q (fun (n, s) _ l -> (n + List.length l, List.fold_left ( + ) s l)) (0, 0)

  let trial ~pool ~domains ~traced ~(ctxs : ctx array) ~seed ~bytes ~before ~after input =
    let refill = match input with Graph (g, _) -> 3 * g.vertices / 4 | _ -> 0 in
    let fail = ref None in
    let expect cond why = if (not cond) && !fail = None then fail := Some why in
    (* --- set-up, timed for setup_s --- *)
    let t_setup = Clock.now () in
    let q = Q.create ~domains ~seed in
    let sssp_state =
      match input with
      | Prefilled pre | Script (pre, _) ->
          Array.iter (Q.insert q) pre;
          None
      | Graph (g, _) ->
          let dist = Array.init g.vertices (fun _ -> Atomic.make Inputs.unreached) in
          Atomic.set dist.(0) 0;
          Q.insert q (Inputs.encode ~dist:0 0);
          Some (dist, Atomic.make 1)
      | Keys _ -> None
    in
    let setup_s = Clock.seconds_since t_setup in
    let bytes_per_elem =
      match input with
      | Prefilled pre when bytes -> live_bytes q /. float_of_int (Array.length pre)
      | _ -> nan
    in
    Array.iter reset ctxs;
    Gc.full_major ();
    before ();
    let gc0 = Gc.quick_stat () in
    let start = Pool.barrier domains in
    Pool.run pool ~domains (fun d ->
        let c = ctxs.(d) in
        start ();
        let w0 = Gc.minor_words () in
        c.t_start <- Clock.now ();
        (match input with
        | Keys keys ->
            let lo, hi = slice (Array.length keys) d domains in
            run_insert c ~traced q keys ~lo ~hi
        | Prefilled _ -> run_drain c ~traced q
        | Script (_, script) ->
            let lo, hi = slice (Array.length script) d domains in
            run_mixed c ~traced q script ~lo ~hi
        | Graph (g, _) ->
            let dist, pending = Option.get sssp_state in
            run_sssp c ~traced q g dist pending);
        c.t_stop <- Clock.now ();
        c.words <- Gc.minor_words () -. w0);
    after ();
    let gc1 = Gc.quick_stat () in
    let ctxs = Array.sub ctxs 0 domains in
    let fold f = Array.fold_left (fun a (c : ctx) -> a + f c) 0 ctxs in
    let first = Array.fold_left (fun a (c : ctx) -> min a c.t_start) max_int ctxs
    and last = Array.fold_left (fun a (c : ctx) -> max a c.t_stop) min_int ctxs
    and late_start = Array.fold_left (fun a (c : ctx) -> max a c.t_start) min_int ctxs
    and early_stop = Array.fold_left (fun a (c : ctx) -> min a c.t_stop) max_int ctxs in
    let inserts = fold (fun c -> c.inserts) and extracts = fold (fun c -> c.extracts) in
    let pops = fold (fun c -> c.pops) and ext_sum = fold (fun c -> c.ext_sum) in
    (* --- checks: conservation, invariants, order, SSSP distances --- *)
    let left, left_sum = contents q and depth = Q.depth q in
    expect (Q.check q) "check () failed";
    let in_n, in_sum =
      match input with
      | Keys k -> (Array.length k, sum k)
      | Prefilled p -> (Array.length p, sum p)
      | Script (p, s) ->
          Array.fold_left
            (fun (n, t) k -> if k = Inputs.extract then (n, t) else (n + 1, t + k))
            (Array.length p, sum p) s
      | Graph _ -> (1 + inserts, 0)
    in
    expect (in_n - pops = left) "element count not conserved";
    (match input with
    | Graph _ -> expect (left = 0) "sssp left elements behind"
    | _ -> expect (in_sum - ext_sum = left_sum) "key sum not conserved");
    (match input with
    | Prefilled _ when Q.exact ->
        expect (Array.for_all (fun (c : ctx) -> c.sorted) ctxs) "a domain's extracts decreased"
    | _ -> ());
    let elements, bytes_per_elem =
      match (input, sssp_state) with
      | Graph (_, reference), Some (dist, _) ->
          let ok = ref true and reached = ref 0 in
          Array.iteri
            (fun v d ->
              if Atomic.get dist.(v) <> d then ok := false;
              if d <> Inputs.unreached then begin
                (* refill the used queue with final keys, a count away
                   from a power of two (see [Perf.full]) *)
                if bytes && !reached < refill then Q.insert q (Inputs.encode ~dist:d v);
                incr reached
              end)
            reference;
          expect !ok "sssp distance differs from the reference";
          (!reached, if bytes then live_bytes q /. float_of_int (min refill !reached) else nan)
      | Keys _, _ -> (inserts, if bytes then live_bytes q /. float_of_int left else nan)
      | Script _, _ ->
          (inserts + extracts, if bytes then live_bytes q /. float_of_int left else nan)
      | _ -> (pops, bytes_per_elem)
    in
    let hins = Hist.create () and hext = Hist.create () in
    let busy = ref 0 and dropped = ref 0 in
    Array.iter
      (fun (c : ctx) ->
        Hist.merge_into ~dst:hins c.hins;
        Hist.merge_into ~dst:hext c.hext;
        busy := !busy + Spans.aggregate c.spans ~ins:hins ~ext:hext;
        dropped := !dropped + c.spans.dropped)
      ctxs;
    {
      structure = Q.name;
      domains;
      traced;
      failure = !fail;
      calls = inserts + extracts;
      inserts;
      extracts;
      empties = fold (fun c -> c.empties);
      pops;
      elements;
      seconds = float_of_int (last - first) *. 1e-9;
      overlap =
        float_of_int (max 0 (early_stop - late_start)) /. float_of_int (max 1 (last - first));
      setup_s;
      calib_ms = nan;
      hins;
      hext;
      words = Array.fold_left (fun a (c : ctx) -> a +. c.words) 0. ctxs;
      busy_s = float_of_int !busy *. 1e-9;
      window_s = float_of_int (fold (fun c -> c.t_stop - c.t_start)) *. 1e-9;
      dropped = !dropped;
      depth;
      bytes_per_elem;
      counters = Q.ops q;
      minor_gcs = gc1.minor_collections - gc0.minor_collections;
    }
end

let trial (module Q : QUEUE) =
  let module C = Make (Q) in
  C.trial
