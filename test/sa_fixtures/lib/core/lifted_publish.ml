(* Fixture: the S3 (write-before-publish) blind spot that lifted CAS
   loops open (DESIGN.md §18). S3 pairs plain stores with a publishing
   CAS inside one function. [publish_lifted] makes the same unfenced
   stores as bad_publish.ml's [publish_unfenced], but the CAS that
   publishes the block sits in the top-level loop [publish_loop], so no
   single function holds both and mm-sa reports nothing. The test
   asserts that silence: if S3 learns to follow calls, this file starts
   to fire and the test says so. *)

open Mm_runtime
open Mm_core

type blk = { mutable hdr : int; mutable body : int }

let rec publish_loop rt (head : blk option Rt.atomic) (b : blk) =
  Rt.label rt Labels.desc_alloc;
  let cur = Rt.Atomic.get head in
  if not (Rt.Atomic.compare_and_set head cur (Some b)) then
    publish_loop rt head b

(* unfenced initialization published by the lifted loop: not flagged *)
let publish_lifted rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  publish_loop rt head b
