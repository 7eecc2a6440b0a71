(* Fixture: hp-protocol on a descriptor's next_d link. Both shapes of a
   dereference with no validated hazard pointer, plus a descriptor the
   analysis cannot trace to a shared read: a parameter. *)

module Rt = Mm_runtime.Sim_rt
module Hp = Mm_lockfree_sim.Hazard_pointers

type desc = { mutable next_d : desc option }

(* No hazard-pointer protection at all before the link read. *)
let walk_unprotected (head : desc option Rt.atomic) =
  match Rt.Atomic.get head with
  | None -> 0
  | Some d -> ( match d.next_d with None -> 0 | Some _ -> 1)

(* Protected, but the head is never re-read after the protection is
   published, so the descriptor may already have been recycled. *)
let pop_no_revalidate (hp : desc Hp.t) (head : desc option Rt.atomic) =
  match Rt.Atomic.get head with
  | None -> None
  | Some d ->
      Hp.protect hp ~slot:0 d;
      let n = d.next_d in
      Hp.clear hp ~slot:0;
      n

(* A parameter: no protect and re-validating read precede the link
   read on any path. *)
let link_of (d : desc) = d.next_d
