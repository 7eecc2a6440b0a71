(** The simulated OS memory substrate.

    Plays the role of [mmap]/[munmap] plus raw memory in the paper: it
    hands out {e regions} (superblock-sized, or arbitrary-sized for large
    blocks) addressed by {!Addr} and backed by host [Bytes.t], and gives
    word-level access to them, charged through the runtime so the
    simulator sees the cache-line traffic. All four allocators share this
    substrate, so OS-call and space statistics are directly comparable.

    Concurrency: region allocation uses a lock-free id counter plus
    lock-free recycling stacks; region slots are published through atomics.
    Reading through a stale address (a block freed and its region reused —
    possible only for code outside the allocator's safety argument)
    returns harmless garbage, never a crash, mirroring real address-space
    reuse.

    Superblock recycling and hyperblocks (paper §3.2.5): with
    [hyperblocks:false], every superblock allocation/free is a simulated
    mmap/munmap (one syscall each); with [hyperblocks:true], superblocks
    are carved 64 at a time from 1 MiB hyperblock mappings, so the syscall
    rate drops by that factor — the ablation benchmark measures exactly
    this. Freed hyperblocks are kept pooled rather than unmapped (the
    paper returns them eventually; the difference is invisible to every
    measured quantity except long-run RSS, which the simulation does not
    model). *)

type os_stats = Alloc_intf.os_stats = {
  mmap_calls : int;
  munmap_calls : int;
  sb_allocs : int;  (** superblock allocations served (incl. recycled) *)
  sb_frees : int;
  sb_reuses : int;
      (** superblock allocations served from the recycling pool without
          a new mapping — no syscall, no mmap event, no eager re-zeroing
          (stale bytes are cleared lazily by {!init_free_list}). Always
          [sb_reuses <= sb_allocs]; [sb_allocs - sb_reuses] superblocks
          came from real (possibly hyperblock-batched) mmaps. *)
  large_mmaps : int;  (** direct large-block mappings ({!alloc_large}) *)
  large_munmaps : int;  (** direct large-block unmappings ({!free_large}) *)
  pages_requested : int;
      (** pages actually needed by buddy-served requests (page-rounded
          request sizes), accumulated via {!note_buddy_grant} *)
  pages_granted : int;
      (** pages granted for them (power-of-two buddy extents); the gap to
          [pages_requested] is the buddy's internal fragmentation *)
}

val page : int
(** The simulated OS page size (4 KiB) — the unit the page manager's
    buddy allocator works in and the granularity of space accounting. *)

type t

val create :
  Rt.t ->
  ?capacity:int ->
  ?sbsize:int ->
  ?hyperblocks:bool ->
  unit ->
  t
(** Defaults: capacity 65536 regions, 16 KiB superblocks, no hyperblocks. *)

val rt : t -> Rt.t
val sbsize : t -> int
val space : t -> Space.t
val os_stats : t -> os_stats

(** {2 Regions} *)

val alloc_superblock : t -> int
(** Address of a fresh superblock ([sbsize] bytes). A newly mapped
    superblock is zero-filled; a recycled one (see [sb_reuses]) carries
    stale bytes until {!init_free_list} lazily restores the
    all-zero-but-links state — callers thread the free list before
    publishing the superblock, so no stale byte is ever observable. *)

val free_superblock : t -> int -> unit
(** [addr] must be the base address of a live superblock. *)

val alloc_large : t -> len:int -> int
(** A dedicated region of at least [len] bytes; space is accounted
    page-rounded (4 KiB), as a real mmap would. *)

val free_large : t -> int -> unit
(** [addr] must be the base address of a live large region. *)

(** {2 Spans}

    Backing for the page manager (DESIGN.md §15): a span is one
    page-multiple region reserved up front and carved into page-aligned
    extents by a lock-free buddy, so large blocks and superblocks stop
    costing one mmap each. Span regions are installed {e dirty}
    ([clean = false]): extents are written and re-carved out of order,
    so a superblock carved from a span always pays {!init_free_list}'s
    lazy re-zeroing of its own bytes (bounded by [?limit]). *)

val alloc_span : t -> pages:int -> int
(** A dedicated region of exactly [pages] simulated pages (one mmap,
    observability site ["store.mmap.span"]). *)

val free_span : t -> int -> unit
(** Unmap a span region ([addr] must be its base) — only ever a losing
    candidate from a span-publish race; published spans stay mapped. *)

val note_buddy_grant : t -> requested:int -> granted:int -> unit
(** Record one buddy grant in the internal-fragmentation census:
    [requested] pages were needed, [granted] (>= requested, a power of
    two) were handed out. *)

val region_len : t -> int -> int
(** Length of the region containing [addr]; 0 if dead. *)

val live_regions : t -> int
(** Number of currently mapped regions (quiescent snapshot; tests). *)

(** {2 Word access}

    [addr] is a full address (region + byte offset); words are 8 bytes.
    Dead-region reads return 0 and writes are dropped — the memory-safe
    analogue of touching unmapped memory. An out-of-bounds {e offset}
    into a live region gets the same tolerant treatment in real mode,
    but under simulation {!read_word} and {!write_word} raise: a
    non-racy OOB offset is a miscomputed address, and failing loudly
    lets the [lib/check] explorer catch it. All three are [@inline], so
    the allocators' hot paths compile the access into their own bodies
    (DESIGN.md §18). *)

val read_word : t -> int -> int
val write_word : t -> int -> int -> unit

val read_word_racy : t -> int -> int
(** {!read_word} for the paper's one deliberate racy dereference: Fig. 4
    reads the link of a block that a concurrent pop may already have
    recycled, and the tagged anchor CAS then rejects whatever it read.
    An out-of-bounds offset reads 0 under simulation too. *)

val base_payload : int -> int -> int
(** [base_payload payload word], with [word] the word just below
    [payload] (the 8-byte block prefix, or an [Alloc_ops.aligned_alloc]
    offset word): the payload address of the block [payload] lies in,
    without a memory access. *)

val base_prefix : t -> base_payload:int -> int -> int
(** [base_prefix t ~base_payload word]: that block's prefix, reading
    memory only when [word] is an offset word. Every [free] and
    [usable_size] takes these two steps, so aligned addresses are
    accepted without allocating. *)

val init_free_list : ?limit:int -> t -> int -> sz:int -> maxcount:int -> unit
(** Thread the in-block free list of a fresh superblock: block [i]'s first
    word is set to [i + 1] ("organize blocks in a linked list starting
    with index 0", Fig. 4). Charged as one streaming write, since the
    superblock is still private to its creator. On a recycled superblock
    this also clears every byte the links don't cover (lazy zeroing —
    the only full-superblock fill a pool hit ever pays). [limit] bounds
    the zeroed window to [limit] bytes from the superblock's base: a
    superblock carved out of a span owns only its own extent and must
    not clear its neighbours' bytes. Without [limit] the whole region is
    restored (whole-region superblocks, where the two coincide). *)

val write_payload_round : t -> int -> len:int -> times:int -> unit
(** Model the benchmark pattern "write [times] times to each of the [len]
    payload bytes at [addr]": real runtime performs the actual byte
    writes (creating genuine cache traffic, e.g. false sharing);
    simulation charges the equivalent line accesses in a few batched
    events so line ping-pong between CPUs is still exhibited. *)

val instance :
  t ->
  name:string ->
  rt:Mm_runtime.Rt.t ->
  malloc:(int -> int) ->
  free:(int -> unit) ->
  usable_size:(int -> int) ->
  check:(unit -> unit) ->
  Alloc_intf.instance
(** The runtime-erased instance of one heap on this store: the allocator
    supplies its heap's closures, the store its word access, payload
    writes and meters. *)
