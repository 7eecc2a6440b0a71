(* Fixture: clean labelled CAS windows over the fixture registry, plus
   a working suppression. *)

module Rt = Mm_runtime.Sim_rt

let pop (cell : int Rt.atomic) rt =
  let cur = Rt.Atomic.get cell in
  Rt.label rt Labels.fx_pop;
  Rt.Atomic.compare_and_set cell cur 0

let push (cell : int Rt.atomic) rt =
  let cur = Rt.Atomic.get cell in
  Rt.label rt Labels.fx_push;
  ignore (Rt.Atomic.compare_and_set cell cur 1);
  (* uses, so only the intended registry findings fire on labels.ml *)
  ignore Labels.fx_push_dup;
  ignore Labels.fx_unlisted

(* mm-sa: allow label-dominance: fixture demonstrating that a
   suppression moves the finding to the suppressed list *)
let quiet (cell : int Rt.atomic) =
  let cur = Rt.Atomic.get cell in
  ignore (Rt.Atomic.compare_and_set cell cur 2)
