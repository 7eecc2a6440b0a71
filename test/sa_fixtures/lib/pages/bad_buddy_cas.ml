(* Fixture: an unlabelled CAS window in the pages section. The first
   acquire carries no Rt.label, so the schedule explorer cannot
   interpose in a buddy claim; the labelled variants keep the fixture
   Pg_labels registry used, so exactly one finding fires. *)

module Rt = Mm_runtime.Sim_rt

let acquire_unlabelled (node : int Rt.atomic) =
  let cur = Rt.Atomic.get node in
  Rt.Atomic.compare_and_set node cur 2

let acquire (node : int Rt.atomic) rt =
  let cur = Rt.Atomic.get node in
  Rt.label rt Pg_labels.fx_buddy_acq;
  Rt.Atomic.compare_and_set node cur 2

let release (node : int Rt.atomic) rt =
  let cur = Rt.Atomic.get node in
  Rt.label rt Pg_labels.fx_buddy_rel;
  ignore (Rt.Atomic.compare_and_set node cur 0)
