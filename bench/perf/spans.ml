(* Per-domain span buffers for the traced run. A span is one queue call:
   its kind, start and end in ns. The buffers are preallocated, so
   recording a span is three array stores and allocates nothing; every
   span of a buffer has the same parent, the domain's whole trial (or
   [sssp.solve]) window, which the trial records beside it. *)

let insert = 'i'
let extract = 'e'

type t = { kind : Bytes.t; t0 : int array; t1 : int array; mutable n : int; mutable dropped : int }

let create cap =
  { kind = Bytes.make cap ' '; t0 = Array.make cap 0; t1 = Array.make cap 0; n = 0; dropped = 0 }

let none = create 0
let reset s =
  s.n <- 0;
  s.dropped <- 0

let add s k a b =
  let n = s.n in
  if n < Array.length s.t0 then begin
    Bytes.unsafe_set s.kind n k;
    Array.unsafe_set s.t0 n a;
    Array.unsafe_set s.t1 n b;
    s.n <- n + 1
  end
  else s.dropped <- s.dropped + 1

(* Aggregate: each span's duration into the histogram of its kind;
   returns the summed duration, the part of the parent window the
   children cover (they never overlap within one domain). *)
let aggregate s ~ins ~ext =
  let busy = ref 0 in
  for j = 0 to s.n - 1 do
    let d = s.t1.(j) - s.t0.(j) in
    busy := !busy + d;
    Hist.add (if Bytes.get s.kind j = insert then ins else ext) d
  done;
  !busy
