(* Latency histograms and the order statistics every report uses.

   A histogram counts non-negative nanosecond values in log buckets with
   16 linear sub-buckets per power of two (values below 16 get a bucket
   each), so a bucket is at most 1/16 of its value wide. [add] only
   increments an array slot: recording allocates nothing, and histograms
   of different domains or trials merge by adding counts. *)

type t = int array

let sub = 16
let buckets = sub + (60 * sub)
let create () : t = Array.make buckets 0
let clear (h : t) = Array.fill h 0 buckets 0

let index v =
  if v < sub then if v < 0 then 0 else v
  else
    let e = Mound.Tree.level_of v in
    sub + ((e - 4) * sub) + ((v lsr (e - 4)) land (sub - 1))

let lower i =
  if i < sub then i
  else
    let e = ((i - sub) / sub) + 4 in
    (sub + ((i - sub) land (sub - 1))) lsl (e - 4)

let width i = if i < sub then 1 else 1 lsl ((i - sub) / sub)

let add (h : t) v =
  let i = index v in
  Array.unsafe_set h i (Array.unsafe_get h i + 1)

let merge_into ~(dst : t) (src : t) =
  Array.iteri (fun i c -> dst.(i) <- dst.(i) + c) src

let count (h : t) = Array.fold_left ( + ) 0 h

(* The [q]-quantile, interpolated linearly inside its bucket so it moves
   with the counts instead of snapping to bucket edges; 0 when empty. *)
let quantile (h : t) q =
  let n = count h in
  if n = 0 then 0.
  else
    let rank = q *. float_of_int n in
    let rec go i before =
      let c = h.(i) in
      if c > 0 && (float_of_int (before + c) >= rank || i = buckets - 1) then
        let frac = (rank -. float_of_int before) /. float_of_int c in
        float_of_int (lower i) +. (Float.max 0. (Float.min 1. frac) *. float_of_int (width i))
      else go (i + 1) (before + c)
    in
    go 0 0

(* Non-empty buckets as (lower bound ns, count) pairs, for artifacts. *)
let to_json (h : t) : Harness.Bench_json.json =
  let open Harness.Bench_json in
  let acc = ref [] in
  for i = buckets - 1 downto 0 do
    if h.(i) > 0 then
      acc := Arr [ Num (float_of_int (lower i)); Num (float_of_int h.(i)) ] :: !acc
  done;
  Arr !acc

(* --- summaries of repeated measurements -------------------------------- *)

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by Python's [statistics.quantiles(values,
   n=4)] (the default "exclusive" method), so spreads printed here match
   the ones computed from the result lines. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  match Array.length a with
  | 0 -> (nan, nan)
  | 1 -> (a.(0), a.(0))
  | ld ->
      let m = ld + 1 in
      let cut i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (cut 1, cut 3)
