(* Fixture: S1 hp-protocol. Three planted violations of the hazard
   protocol (protect -> re-validating read -> deref -> release on every
   path), one per failure shape. Compiled only so mm-sa can read its
   typed AST; nothing links against it. *)

module Rt = Mm_runtime.Sim_rt
module Hp = Mm_lockfree_sim.Hazard_pointers

type nd = { mutable next_d : nd option; mutable seq : int }
type t = { head : nd option Rt.atomic; hp : nd Hp.t }

(* 1: dereference with no hazard protection at all *)
let peek_raw t =
  match Rt.Atomic.get t.head with
  | None -> 0
  | Some d -> ( match d.next_d with Some _ -> 1 | None -> 0)

(* 2: protected, but never re-validated by a fresh read of the source *)
let peek_protected_stale t =
  match Rt.Atomic.get t.head with
  | None -> None
  | Some d ->
      Hp.protect t.hp ~slot:0 d;
      let n = d.next_d in
      Hp.clear t.hp ~slot:0;
      n

(* 3: slot released on the validated path only — leaked when the
   re-validating read disagrees *)
let pop_leaky t =
  match Rt.Atomic.get t.head with
  | None -> None
  | Some d ->
      Hp.protect t.hp ~slot:0 d;
      if Rt.Atomic.get t.head == Some d then begin
        let n = d.next_d in
        Hp.clear t.hp ~slot:0;
        n
      end
      else None
