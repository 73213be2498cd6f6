(** Sequential binary min-heap on a growable array.

    The textbook structure the mound is measured against asymptotically:
    O(log N) insert (trickle up) and O(log N) extract-min (sift down).
    Used as the model oracle in tests and as the storage engine of
    {!Coarse_heap}.

    Slots past [size] may retain references to extracted elements until
    overwritten; irrelevant for the small value types used here. *)

module Make (Ord : Mound.Intf.ORDERED) = struct
  type elt = Ord.t

  type t = { mutable data : elt array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let is_empty t = t.size = 0

  let size t = t.size

  (* [filler] seeds the new backing array so no dummy element is needed. *)
  let grow t filler =
    let cap = max 4 (2 * Array.length t.data) in
    let data = Array.make cap filler in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if Ord.compare t.data.(i) t.data.(p) < 0 then begin
        swap t i p;
        sift_up t p
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && Ord.compare t.data.(l) t.data.(!smallest) < 0 then
      smallest := l;
    if r < t.size && Ord.compare t.data.(r) t.data.(!smallest) < 0 then
      smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let insert t v =
    if t.size = Array.length t.data then grow t v;
    t.data.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let peek_min t = if t.size = 0 then None else Some t.data.(0)

  let extract_min t =
    if t.size = 0 then None
    else begin
      let min = t.data.(0) in
      t.size <- t.size - 1;
      t.data.(0) <- t.data.(t.size);
      sift_down t 0;
      Some min
    end

  (** Heap-order invariant, for tests. *)
  let check t =
    let ok = ref true in
    for i = 1 to t.size - 1 do
      if Ord.compare t.data.((i - 1) / 2) t.data.(i) > 0 then ok := false
    done;
    !ok
end
