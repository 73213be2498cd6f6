module Splitmix64 = Splitmix64
module Xoshiro256 = Xoshiro256

type t = Xoshiro256.t

let create = Xoshiro256.create

(* Hash the thread id into the seed with SplitMix64 so that ids 0,1,2,...
   land on unrelated points of the seed space rather than adjacent ones. *)
let for_thread ~seed ~id =
  let sm = Splitmix64.create (Int64.add seed (Int64.of_int id)) in
  ignore (Splitmix64.next sm);
  Xoshiro256.create (Splitmix64.next sm)

let int = Xoshiro256.next_int

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + Xoshiro256.next_int t (hi - lo + 1)

let bool = Xoshiro256.bool

let int64 = Xoshiro256.next

let fingerprint = Xoshiro256.fingerprint

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro256.next_int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
