(* Fixture: a clean lockfree-section window over the fixture registry. *)

module Rt = Mm_runtime.Sim_rt

let advance (cell : int Rt.atomic) rt =
  let cur = Rt.Atomic.get cell in
  Rt.label rt Lf_labels.fx_ring;
  Rt.Atomic.compare_and_set cell cur (cur + 1)
