(* Fixture: S3 (write-before-publish) across a call into a lifted CAS
   loop (DESIGN.md §18). [publish_lifted] makes the same unfenced
   stores as bad_publish.ml's [publish_unfenced], but the CAS that
   publishes the block sits in the top-level loop [publish_loop]. The
   loop's CAS publishes its parameter [b] with no fence since entry, so
   it demands that callers fence their stores into that argument;
   [publish_lifted] does not, and is reported at the call. *)

module Rt = Mm_runtime.Sim_rt
open Mm_core

type blk = { mutable hdr : int; mutable body : int }

let rec publish_loop rt (head : blk option Rt.atomic) (b : blk) =
  Rt.label rt Labels.desc_alloc;
  let cur = Rt.Atomic.get head in
  if not (Rt.Atomic.compare_and_set head cur (Some b)) then
    publish_loop rt head b

(* unfenced initialization published by the lifted loop *)
let publish_lifted rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  publish_loop rt head b

(* clean twin: the fence orders the stores before the call *)
let publish_lifted_fenced rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  Rt.fence rt;
  publish_loop rt head b
