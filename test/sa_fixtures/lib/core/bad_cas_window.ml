(* Fixture: an unlabelled CAS window. No Rt.label dominates the CAS and
   nothing analyzed calls [bump], so the label-dominance obligation
   escapes to the exported entry point. *)

module Rt = Mm_runtime.Sim_rt

let bump (cell : int Rt.atomic) v =
  let cur = Rt.Atomic.get cell in
  if not (Rt.Atomic.compare_and_set cell cur v) then ()
