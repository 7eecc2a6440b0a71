(* Fixture: S4 label-dominance over CAS retry loops lifted to top-level
   [let rec]s that take their label as a parameter (DESIGN.md §18: a
   local loop would allocate a closure per call). Two twins:

   - [forwarded] reaches the loop through [bump_via], which forwards its
     own [~label]: no caller of the loop passes a registry constant, so
     the loop's label demand is undischarged and escapes to the
     exported entry point.
   - [direct] passes [~label:Labels.free_cas] straight to the loop: the
     demand is discharged at the call site, and the twin is clean. *)

module Rt = Mm_runtime.Sim_rt
module Backoff = Mm_lockfree_sim.Backoff
module Labels = Mm_core.Labels

let rec forwarded_loop rt (c : int Rt.atomic) ~label spins =
  let v = Rt.Atomic.get c in
  Rt.label rt label;
  if not (Rt.Atomic.compare_and_set c v (v + 1)) then
    forwarded_loop rt c ~label (Backoff.spin rt spins)

let bump_via rt c ~label = forwarded_loop rt c ~label Backoff.initial
let forwarded rt c = bump_via rt c ~label:Labels.free_cas

let rec direct_loop rt (c : int Rt.atomic) ~label spins =
  let v = Rt.Atomic.get c in
  Rt.label rt label;
  if not (Rt.Atomic.compare_and_set c v (v + 1)) then
    direct_loop rt c ~label (Backoff.spin rt spins)

let direct rt c = direct_loop rt c ~label:Labels.free_cas Backoff.initial
