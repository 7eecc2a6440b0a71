(* Fixture: S4 label-dominance in the pages section — a buddy-style
   bitmap reservation retried with no label in the loop. *)

module Rt = Mm_runtime.Sim_rt

let rec reserve rt (word : int Rt.atomic) bits =
  let cur = Rt.Atomic.get word in
  if cur land bits <> 0 then false
  else if Rt.Atomic.compare_and_set word cur (cur lor bits) then true
  else reserve rt word bits
