(* Fixture: S3 write-before-publish. The block fed to the publishing
   CAS is initialized by plain stores with no Rt.fence in between; the
   fenced twin below it must stay clean. *)

module Rt = Mm_runtime.Sim_rt
open Mm_core

type blk = { mutable hdr : int; mutable body : int }

(* 1: unfenced initialization published by the CAS *)
let publish_unfenced rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  Rt.label rt Labels.desc_alloc;
  let cur = Rt.Atomic.get head in
  if Rt.Atomic.compare_and_set head cur (Some b) then () else ()

(* clean twin: the fence orders the stores before the publish *)
let publish_fenced rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  Rt.fence rt;
  Rt.label rt Labels.desc_alloc;
  let cur = Rt.Atomic.get head in
  if Rt.Atomic.compare_and_set head cur (Some b) then () else ()
