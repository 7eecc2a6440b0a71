(** Configuration shared by all allocators in the repository.

    Defaults mirror the paper's setup: 16 KiB superblocks, [MAXCREDITS] =
    64, one processor heap per (simulated) CPU per size class, FIFO
    partial lists, hazard-pointer descriptor freelist. The alternatives
    are the paper's own design options and are exercised by the ablation
    benchmarks (see DESIGN.md §4). *)

type partial_policy =
  | Fifo  (** §3.2.6 preferred: MS-queue; reduces contention/false sharing *)
  | Lifo  (** §3.2.6 alternative: lock-free LIFO list *)

type desc_pool_kind =
  | Hazard  (** Fig. 7 with SafeCAS via hazard pointers (paper default) *)
  | Tagged  (** IBM tag in the freelist head word (paper [18] alternative) *)
  | Reuse
      (** "Reuse, don't Recycle" (Arbel-Raviv & Brown, DESIGN.md §17):
          descriptors are immortal per-slot objects reused in place —
          a per-thread LIFO of retired descriptors in front of the
          [Tagged] freelist. No hazard pointers, no retire list, no
          [hp.scan]: ABA safety comes from the anchor/IBM tag
          discipline that already guards every descriptor CAS. *)

type lock_kind =
  | Tas_backoff  (** "lightweight" test-and-set lock of §4 *)
  | Ticket  (** FIFO-fair ticket lock *)
  | Pthread_like  (** models a heavier kernel-assisted mutex *)

type free_lists =
  [ `Anchor
    (** paper-verbatim: every free CASes its superblock's anchor
        (Fig. 6), every pop CASes it back out (Fig. 4). *)
  | `Owner_biased
    (** scalloc-style split free lists (DESIGN.md §19): the thread that
        owns a superblock frees into a private plain-write LIFO and
        claims the public remote-free list in one CAS; remote frees
        push onto the public tagged list ([pub.push], one CAS). The
        anchor of an owned superblock is frozen at FULL and written
        only under public-list ownership, so [partial_list] and the
        EMPTY/FULL state machine are unchanged. *) ]

type t = {
  nheaps : int;
      (** processor heaps per size class; 1 enables the §4.2.4 uniprocessor
          optimization. 0 means "one per runtime CPU". *)
  sbsize : int;  (** superblock size in bytes (power of two) *)
  maxcredits : int;  (** at most 64: credits live in 6 bits of Active *)
  partial_policy : partial_policy;
  desc_pool : desc_pool_kind;
  hyperblocks : bool;  (** §3.2.5 batch superblock mmaps *)
  store_capacity : int;  (** region-table slots in the store *)
  lock_kind : lock_kind;  (** lock used by the lock-based baselines *)
  arena_limit : int;  (** Ptmalloc baseline: max arenas (paper observes it
                          creating more arenas than threads) *)
  desc_scan_threshold : int;
      (** hazard-pointer scan threshold for the descriptor pool; 0 means
          the hazard-pointer default. Small values make descriptor
          recycling frequent, which the checking subsystem uses to widen
          the ABA surface it explores. *)
  cache : bool;
      (** the per-thread block-cache frontend ({!Mm_core.Block_cache},
          DESIGN.md §13), whose [create] requires [true]. [false] (the
          default) is the verbatim paper allocator: every malloc/free goes
          straight to the Fig. 4/6 paths. *)
  cache_blocks : int;
      (** per-thread, per-size-class cache capacity in blocks (>= 1). *)
  cache_batch : int;
      (** blocks moved per batched refill or flush, in [1, cache_blocks].
          A refill reserves up to this many credits in one CAS on Active;
          an overflow or remote-free flush pushes this many blocks back
          through the Fig. 6 path in one anchor CAS per superblock. *)
  page_manager : bool;
      (** route large blocks and superblock carving through the
          [lib/pages] span reservoir + lock-free buddy (DESIGN.md §15)
          instead of one mmap/munmap per large block or superblock.
          [false] (the default) preserves the paper-verbatim OS paths
          bit for bit. *)
  span_pages : int;
      (** pages per reserved span when [page_manager] is on (positive
          power of two; default 64 = 256 KiB spans). *)
  free_lists : free_lists;
      (** which free-list discipline the core allocator's small-block
          paths use. [`Anchor] (the default) is bit-identical to the
          paper's figures; [`Owner_biased] collapses anchor contention
          by routing frees through per-superblock private/public lists
          (DESIGN.md §19). *)
}

val default : t

val make :
  ?nheaps:int ->
  ?sbsize:int ->
  ?maxcredits:int ->
  ?partial_policy:partial_policy ->
  ?desc_pool:desc_pool_kind ->
  ?hyperblocks:bool ->
  ?store_capacity:int ->
  ?lock_kind:lock_kind ->
  ?arena_limit:int ->
  ?desc_scan_threshold:int ->
  ?cache:bool ->
  ?cache_blocks:int ->
  ?cache_batch:int ->
  ?page_manager:bool ->
  ?span_pages:int ->
  ?free_lists:free_lists ->
  unit ->
  t
(** [default] with overrides; validates ranges. *)

val resolve_nheaps : t -> num_cpus:int -> int
(** Resolves [nheaps = 0] to the given CPU count (the caller asks its
    runtime — the config itself is runtime-agnostic). *)
