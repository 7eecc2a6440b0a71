let names = [ "new"; "new-cached"; "hoard"; "ptmalloc"; "libc"; "bw" ]

(* Each variant of the paper allocator is "new" with exactly one config
   field forced, whatever the config says, so a variant and "new" differ
   in exactly that field:
   - "new-reuse": the reuse-in-place descriptor pool (DESIGN.md §17),
     the ablation-reclaim variant;
   - "new-tagged": the IBM-tag descriptor freelist, the paper's Fig. 7
     alternative (traced only, so [make] does not build it);
   - "new-ob": owner-biased private/public free lists (DESIGN.md §19),
     the ablation-ownerbias variant;
   - "new-cached": the per-thread block-cache frontend (DESIGN.md §13).
   Only "new-cached" is a comparison column in [names]. *)
let override name (cfg : Mm_mem.Alloc_config.t) =
  match name with
  | "new-reuse" -> { cfg with desc_pool = Mm_mem.Alloc_config.Reuse }
  | "new-tagged" -> { cfg with desc_pool = Mm_mem.Alloc_config.Tagged }
  | "new-ob" -> { cfg with free_lists = `Owner_biased }
  | "new-cached" -> { cfg with cache = true }
  | _ -> cfg

(* One allocator stack per runtime (DESIGN.md §18): each library is
   compiled once against the real runtime and once against the
   simulator. [make] picks the copy from the value-level runtime handle
   — the only dispatch left, paid once per heap creation. *)
module Lf = Mm_core.Lf_alloc
module Bc = Mm_core.Block_cache
module B = Mm_baselines
module Lf_s = Mm_core_sim.Lf_alloc
module Bc_s = Mm_core_sim.Block_cache
module B_s = Mm_baselines_sim

let make name rt cfg =
  let cfg = override name cfg in
  match (Mm_runtime.Rt.sim rt, name) with
  | None, ("new" | "new-reuse" | "new-ob") -> Lf.instance rt (Lf.create () cfg)
  | Some s, ("new" | "new-reuse" | "new-ob") ->
      Lf_s.instance rt (Lf_s.create s cfg)
  | None, "new-cached" -> Bc.instance rt (Bc.create () cfg)
  | Some s, "new-cached" -> Bc_s.instance rt (Bc_s.create s cfg)
  | None, "bw" -> B.Bw_alloc.instance rt (B.Bw_alloc.create () cfg)
  | Some s, "bw" -> B_s.Bw_alloc.instance rt (B_s.Bw_alloc.create s cfg)
  | None, "hoard" -> B.Hoard_alloc.instance rt (B.Hoard_alloc.create () cfg)
  | Some s, "hoard" ->
      B_s.Hoard_alloc.instance rt (B_s.Hoard_alloc.create s cfg)
  | None, "ptmalloc" ->
      B.Ptmalloc_alloc.instance rt (B.Ptmalloc_alloc.create () cfg)
  | Some s, "ptmalloc" ->
      B_s.Ptmalloc_alloc.instance rt (B_s.Ptmalloc_alloc.create s cfg)
  | None, "libc" -> B.Libc_alloc.instance rt (B.Libc_alloc.create () cfg)
  | Some s, "libc" -> B_s.Libc_alloc.instance rt (B_s.Libc_alloc.create s cfg)
  | _, other -> invalid_arg ("Allocators.make: unknown allocator " ^ other)
