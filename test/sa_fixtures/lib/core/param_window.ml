(* Fixture support for S4: a CAS window whose label is a record field
   set at creation, the shape the interprocedural demand exists for.
   [bad_label.ml] calls [pop] from an unlabelled retry loop. No finding
   of its own: a label-parameter demand is discharged or reported at
   its call sites. *)

module Make (Rt : Mm_runtime.Runtime_intf.S with type t = unit) = struct
  module Backoff = Mm_lockfree.Backoff

  type t = { rt : Rt.t; head : int Rt.atomic; pop_label : string }

  let create rt ~pop_label = { rt; head = Rt.Atomic.make rt 0; pop_label }

  let pop t =
    let rec go spins =
      let old = Rt.Atomic.get t.head in
      if old = 0 then None
      else begin
        Rt.label t.rt t.pop_label;
        if Rt.Atomic.compare_and_set t.head old (old - 1) then Some old
        else go (Backoff.spin t.rt spins)
      end
    in
    go Backoff.initial
end
