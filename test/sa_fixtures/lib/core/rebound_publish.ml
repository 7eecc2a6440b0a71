(* Fixture: S3 (write-before-publish) across a retry backedge. The
   top-level loop [publish_loop] publishes its parameter [b] with no
   fence since entry, so callers must fence their stores into that
   argument. Both retries below store into the block right after
   publishing it and then retry; only the one that publishes the same
   block again carries the unfenced store into the next publish. *)

module Rt = Mm_runtime.Sim_rt
open Mm_core

type blk = { mutable hdr : int; mutable body : int }

let rec publish_loop rt (head : blk option Rt.atomic) (b : blk) =
  Rt.label rt Labels.desc_alloc;
  let cur = Rt.Atomic.get head in
  if not (Rt.Atomic.compare_and_set head cur (Some b)) then
    publish_loop rt head b

(* clean: each retry takes a new block out of [take], so the store into
   the previous one is not published by the next iteration *)
let rec rebound_retry rt head take =
  match take () with
  | None -> ()
  | Some b ->
      publish_loop rt head b;
      b.hdr <- 1;
      rebound_retry rt head take

(* fires: the retry passes the same block on, so one iteration's store
   reaches the next iteration's publish unfenced *)
let rec same_block_retry rt head (b : blk) n =
  publish_loop rt head b;
  b.hdr <- 1;
  if n > 0 then same_block_retry rt head b (n - 1)
