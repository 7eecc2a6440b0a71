type partial_policy = Fifo | Lifo
type desc_pool_kind = Hazard | Tagged | Reuse
type lock_kind = Tas_backoff | Ticket | Pthread_like
type free_lists = [ `Anchor | `Owner_biased ]

type t = {
  nheaps : int;
  sbsize : int;
  maxcredits : int;
  partial_policy : partial_policy;
  desc_pool : desc_pool_kind;
  hyperblocks : bool;
  store_capacity : int;
  lock_kind : lock_kind;
  arena_limit : int;
  desc_scan_threshold : int;
  cache : bool;
  cache_blocks : int;
  cache_batch : int;
  page_manager : bool;
  span_pages : int;
  free_lists : free_lists;
}

let default =
  {
    nheaps = 0;
    sbsize = 16 * 1024;
    maxcredits = 64;
    partial_policy = Fifo;
    desc_pool = Hazard;
    hyperblocks = false;
    store_capacity = 65536;
    lock_kind = Tas_backoff;
    arena_limit = 64;
    desc_scan_threshold = 0;
    cache = false;
    cache_blocks = 64;
    cache_batch = 16;
    page_manager = false;
    span_pages = 64;
    free_lists = `Anchor;
  }

let make ?(nheaps = default.nheaps) ?(sbsize = default.sbsize)
    ?(maxcredits = default.maxcredits)
    ?(partial_policy = default.partial_policy)
    ?(desc_pool = default.desc_pool) ?(hyperblocks = default.hyperblocks)
    ?(store_capacity = default.store_capacity)
    ?(lock_kind = default.lock_kind) ?(arena_limit = default.arena_limit)
    ?(desc_scan_threshold = default.desc_scan_threshold)
    ?(cache = default.cache) ?(cache_blocks = default.cache_blocks)
    ?(cache_batch = default.cache_batch)
    ?(page_manager = default.page_manager) ?(span_pages = default.span_pages)
    ?(free_lists = default.free_lists) () =
  if nheaps < 0 then invalid_arg "Alloc_config: nheaps must be >= 0";
  if maxcredits < 1 || maxcredits > 64 then
    invalid_arg "Alloc_config: maxcredits must be in [1, 64]";
  if arena_limit < 1 then invalid_arg "Alloc_config: arena_limit must be >= 1";
  if desc_scan_threshold < 0 then
    invalid_arg "Alloc_config: desc_scan_threshold must be >= 0";
  if cache_blocks < 1 then
    invalid_arg "Alloc_config: cache_blocks must be >= 1";
  if cache_batch < 1 || cache_batch > cache_blocks then
    invalid_arg "Alloc_config: cache_batch must be in [1, cache_blocks]";
  if span_pages < 1 || span_pages land (span_pages - 1) <> 0 then
    invalid_arg "Alloc_config: span_pages must be a positive power of two";
  {
    nheaps;
    sbsize;
    maxcredits;
    partial_policy;
    desc_pool;
    hyperblocks;
    store_capacity;
    lock_kind;
    arena_limit;
    desc_scan_threshold;
    cache;
    cache_blocks;
    cache_batch;
    page_manager;
    span_pages;
    free_lists;
  }

let resolve_nheaps t ~num_cpus =
  if t.nheaps > 0 then t.nheaps else Int.max 1 num_cpus
