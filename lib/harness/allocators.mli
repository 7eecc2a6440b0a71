(** Registry of the allocators under comparison: the paper's four plus
    the block-cache frontend extension and the Blelloch–Wei
    constant-time baseline. *)

val names : string list
(** ["new"; "new-cached"; "hoard"; "ptmalloc"; "libc"; "bw"] — "new" is
    the paper's lock-free allocator; "new-cached" is the same allocator
    behind the per-thread block-cache frontend ([Mm_core.Block_cache],
    forced on regardless of the config's [cache] bit); "bw" is the
    Blelloch–Wei-style constant-time fixed-size allocator
    ([Mm_baselines.Bw_alloc]). [make] additionally accepts "new-reuse"
    (the paper allocator with [desc_pool = Reuse] forced on —
    DESIGN.md §17), which is not a comparison column but the
    ablation-reclaim variant; likewise "new-ob" (owner-biased free
    lists). *)

val override : string -> Mm_mem.Alloc_config.t -> Mm_mem.Alloc_config.t
(** [override name cfg] is the config the named variant of the paper
    allocator runs with: [cfg] with the one field the name forces —
    [desc_pool = Reuse] for "new-reuse", [Tagged] for "new-tagged" (the
    traced IBM-tag ablation, which [make] does not build),
    [free_lists = `Owner_biased] for "new-ob", [cache = true] for
    "new-cached" — and [cfg] itself for any other name. *)

val make :
  string -> Mm_runtime.Rt.t -> Mm_mem.Alloc_config.t ->
  Mm_mem.Alloc_intf.instance
(** Fresh heap of the named allocator. Raises [Invalid_argument] on an
    unknown name. *)
