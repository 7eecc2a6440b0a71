(* Fixture: S4 label-dominance. Three planted shapes: an unlabelled
   CAS retry loop; a call into a parameterized CAS window
   (Param_window.pop) from a retry loop with no dominating label;
   and an unlabelled straight-line CAS whose obligation escapes to the
   exported entry point. The parameterized-window demand also proves
   that the interprocedural lookup resolves a [module Tis =
   Param_window] alias. Line numbers are pinned by test_sa.ml. *)

module Rt = Mm_runtime.Sim_rt
module Tis = Param_window

(* 1: CAS retried with no label re-established in the loop *)
let rec spin (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  if Rt.Atomic.compare_and_set c v (v + 1) then () else spin c

(* 2: parameterized window called from an unlabelled retry loop *)
let rec drain (s : Tis.t) =
  match Tis.pop s with Some _ -> drain s | None -> ()

(* 3: no label anywhere; nothing analyzed calls [once], so the
   obligation reaches the public API *)
let once rt (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  if Rt.Atomic.compare_and_set c v 9 then Rt.yield rt
