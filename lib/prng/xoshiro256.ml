(* The four state words s0..s3 live unboxed at byte offsets 0, 8, 16
   and 24 of one 32-byte buffer: a record of [mutable int64] fields
   would box a fresh int64 on every write, several per draw. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

let create seed =
  let sm = Splitmix64.create seed in
  (* SplitMix64 output is equidistributed, so the all-zero state cannot
     occur for any seed; no need to re-check. *)
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  make s0 s1 s2 s3

let copy = Bytes.copy

(* A cheap mixing of the four state words into one int; used by the
   liveness checker to include "how much randomness has this thread
   consumed" in its state fingerprints. Not a hash of the output stream —
   equal fingerprints mean equal states for all practical purposes. *)
let fingerprint t =
  let mix acc w =
    let acc = Int64.logxor acc w in
    let acc = Int64.mul acc 0xFF51AFD7ED558CCDL in
    Int64.logxor acc (Int64.shift_right_logical acc 33)
  in
  let h =
    mix (mix (mix (mix 0x9E3779B97F4A7C15L (get t 0)) (get t 8)) (get t 16))
      (get t 24)
  in
  Int64.to_int h land max_int

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw below, so the output stays unboxed unless
   the caller asks for the [int64] itself. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 tt);
  set t 24 (rotl s3 45);
  result

let bits30 t = Int64.to_int (Int64.shift_right_logical (next t) 34)

let bool t = Int64.logand (next t) 1L = 1L

(* Unbiased bounded draw: take the top 61 bits of a draw (61 so the
   range itself fits OCaml's 63-bit int), reject draws from the
   incomplete final bucket of that range, and reduce the rest by
   [mod]. The rejection probability is < bound/2^61, so the loop runs
   once in practice. A top-level function: an inner [draw] closure
   would be allocated on every call. *)
let rec draw t bound limit =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 3) in
  if v < limit then v mod bound else draw t bound limit

let next_int t bound =
  if bound <= 0 then invalid_arg "Xoshiro256.next_int: bound must be positive";
  let range = 1 lsl 61 in
  draw t bound (range - (range mod bound))

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc (8 * i) (Int64.logxor (get acc (8 * i)) (get t (8 * i)))
          done;
        ignore (next t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
