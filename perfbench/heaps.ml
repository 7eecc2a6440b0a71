(* The three measured configurations, built with the same overrides
   [Mm_harness.Allocators.make] applies for "new", "new-cached" and
   "new-ob", but keeping the typed heap so the benchmark can read the
   counters each layer exports. *)

module Rt = Mm_runtime.Real_rt
module Cfg = Mm_mem.Alloc_config
module Lf = Mm_core.Lf_alloc.Make (Rt)
module Bc = Mm_core.Block_cache.Make (Rt)

let names = [ "new"; "new-cached"; "new-ob" ]

(* The default configuration with one processor heap per worker domain. *)
let base = Cfg.make ~nheaps:Inputs.domains ()

type t = Plain of Lf.t | Cached of Bc.t

let create = function
  | "new" -> Plain (Lf.create () base)
  | "new-ob" -> Plain (Lf.create () { base with Cfg.free_lists = `Owner_biased })
  | "new-cached" -> Cached (Bc.create () { base with Cfg.cache = true })
  | other -> invalid_arg ("Heaps.create: unknown configuration " ^ other)

(* The [Alloc_intf.instance] closures applications call. *)
let instance name = function
  | Plain h -> Lf.instance ~name Mm_runtime.Rt.real h
  | Cached h -> Bc.instance ~name Mm_runtime.Rt.real h

let backend = function Plain h -> h | Cached h -> Bc.backend h

(* [(mallocs, frees)] the heap itself counted; the benchmark cross-checks
   its own call counts against these. *)
let op_counts = function
  | Plain h -> Lf.op_counts h
  | Cached h -> Bc.op_counts h

let cache_stats = function Plain _ -> None | Cached h -> Some (Bc.stats h)
