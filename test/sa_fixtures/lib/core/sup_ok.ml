(* Fixture: the shared suppression machinery. The violation below is
   real (same shape as bad_publish) but carries an adjacent reasoned
   suppression, so it must land in the suppressed list, not the
   findings. *)

module Rt = Mm_runtime.Sim_rt
open Mm_core

type blk = { mutable hdr : int }

(* mm-sa: allow write-before-publish: fixture — the suppression comment
   itself is what is under test here. *)
let publish_suppressed rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  Rt.label rt Labels.desc_alloc;
  let cur = Rt.Atomic.get head in
  if Rt.Atomic.compare_and_set head cur (Some b) then () else ()
