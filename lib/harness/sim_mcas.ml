(* Simulated Mcas cells holding small integers, for the programs that
   exercise the primitives themselves (the DPOR and progress entries and
   the ablation's primitive costs): each [Int] is a block of its own,
   compared physically. *)
include Mcas.Make (Sim.Runtime.Atomic)

type _ state += Int of int

let to_int = function Int v -> v | _ -> assert false
