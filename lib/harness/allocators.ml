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

(* One allocator stack per runtime backend, specialized at compile time
   (DESIGN.md §18). [make] below picks the instantiation from the
   value-level runtime handle — the only dispatch left, paid once per
   heap creation instead of once per operation. Applicative functor
   semantics keep [Stack(Mm_runtime.Sim_rt).Lf.t] equal to
   [Mm_core.Lf_alloc.Make(Mm_runtime.Sim_rt).t], so typed clients
   (lib/check, Traced) interoperate with instances built here. *)
module Stack (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Lf = Mm_core.Lf_alloc.Make (Rt)
  module Bc = Mm_core.Block_cache.Make (Rt)
  module Bw = Mm_baselines.Bw_alloc.Make (Rt)
  module Hoard = Mm_baselines.Hoard_alloc.Make (Rt)
  module Ptmalloc = Mm_baselines.Ptmalloc_alloc.Make (Rt)
  module Libc = Mm_baselines.Libc_alloc.Make (Rt)

  let make name vrt h cfg =
    match name with
    | "new" | "new-reuse" | "new-ob" ->
        Lf.instance vrt (Lf.create h (override name cfg))
    | "bw" -> Bw.instance vrt (Bw.create h cfg)
    | "new-cached" -> Bc.instance vrt (Bc.create h (override name cfg))
    | "hoard" -> Hoard.instance vrt (Hoard.create h cfg)
    | "ptmalloc" -> Ptmalloc.instance vrt (Ptmalloc.create h cfg)
    | "libc" -> Libc.instance vrt (Libc.create h cfg)
    | other -> invalid_arg ("Allocators.make: unknown allocator " ^ other)
end

module Real_stack = Stack (Mm_runtime.Real_rt)
module Sim_stack = Stack (Mm_runtime.Sim_rt)

let make name rt cfg =
  match Mm_runtime.Rt.sim rt with
  | None -> Real_stack.make name rt () cfg
  | Some s -> Sim_stack.make name rt s cfg
