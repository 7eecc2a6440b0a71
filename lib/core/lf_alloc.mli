(** The completely lock-free allocator — the paper's contribution (§3).

    The structure is exactly the
    paper's: per size class, an array of processor heaps; each heap an
    [Active] word (descriptor pointer + credits) and a most-recently-used
    [Partial] slot; per size class a lock-free FIFO of partial
    superblocks; descriptors from the lock-free descriptor pool. [malloc]
    tries [MallocFromActive], then [MallocFromPartial], then
    [MallocFromNewSB] (Fig. 4); [free] pushes the block onto its
    superblock's anchor and handles the FULL→PARTIAL and →EMPTY
    transitions (Fig. 6). Every algorithmic CAS, fence and instrumentation
    point follows the figures line by line; comments in the
    implementation cite them. Each figure step exists once, for a run of
    blocks: the single-block [malloc]/[free] are the size-one case of
    {!refill_batch}/{!flush_batch} and issue exactly the figures'
    events.

    When the configuration selects [`Owner_biased] free lists
    (DESIGN.md §19), small malloc/free switch to owner-biased
    private/public superblock free lists: each thread owns at most one
    superblock per size class, serving its own mallocs and frees from a
    private LIFO with plain writes (no CAS at all), while remote frees
    push onto the descriptor's public {!Pub_word} list ([pub.push]) and
    the owner reclaims the whole public list in one CAS ([pub.claim]).
    While a superblock is owned its anchor is frozen at FULL(0,0) and
    written only by the owner, so the anchor state machine, partial
    structures and EMPTY/FULL transitions are shared verbatim with the paper's mode — ownership handoff simply re-anchors
    the superblock. Under the default [`Anchor] configuration every path
    is bit-identical to the paper's figures.

    Progress: no operation ever blocks on another thread. A thread delayed
    or killed at any {!Labels} point leaves the heap in a state from which
    every other thread completes its own operations (verified by the
    fault-injection test-suite under the simulated runtime). *)

type t

val name : string
(** Short identifier used in experiment output ("new", "hoard", ...). *)

val create : Rt.t -> Mm_mem.Alloc_config.t -> t
(** A fresh, independent heap (own store, own descriptors). Thread-safe
    for concurrent [malloc]/[free] once created. *)

val malloc : t -> int -> int
(** [malloc t n] allocates a block with at least [n] payload bytes and
    returns its payload address (never [Addr.null]; raises
    [Invalid_argument] on negative [n], [Failure] on substrate
    exhaustion). [malloc t 0] returns a valid unique block. From an
    active (or owned) superblock it hands out the block
    [refill_batch ~max:1] would, leaving the same words. *)

val free : t -> int -> unit
(** Returns a block to the heap. [free t Addr.null] is a no-op. Freeing
    an address not obtained from [malloc] (or freeing twice) is a
    programming error with undefined (but memory-safe) behaviour, as in
    C; an address that is not a block boundary raises
    [Invalid_argument]. A small block's free is the size-one case of
    {!flush_batch}: [free t p] and [flush_batch t [p]] leave the same
    words. *)

val usable_size : t -> int -> int
(** Payload bytes actually available at an address returned by [malloc]
    (or [Alloc_ops.aligned_alloc]); at least the requested size. *)

val store : t -> Store.t
val rt : t -> Rt.t

val check_invariants : t -> unit
(** Validate internal invariants; requires quiescence (no concurrent
    operations). Raises [Failure] with a diagnostic on violation. *)

val instance : ?name:string -> Mm_runtime.Rt.t -> t -> Mm_mem.Alloc_intf.instance
(** Package one heap as a runtime-erased {!Mm_mem.Alloc_intf.instance}.
    The value-level runtime handle is taken from the caller (it knows
    which runtime [Rt] was instantiated with); [?name] overrides the
    harness name. *)

(** {2 Introspection beyond the common interface (tests, experiments)} *)

val size_classes : t -> Mm_mem.Size_class.t
val nheaps : t -> int

val home_heap : t -> tid:int -> int
(** The processor heap thread [tid] allocates from, [tid mod nheaps],
    read off a table [create] builds so the hot path divides nothing. *)

val heap_coords : t -> int -> int * int
(** [heap_coords t gid] is the [(size class, processor heap)] of the
    heap with global index [gid], [(gid / nheaps, gid mod nheaps)],
    read off the same kind of table. *)

val max_sbsize : int
(** The largest [sbsize] {!create} accepts (1 MiB): up to it, the
    per-descriptor reciprocal behind {!block_index} divides every block
    offset of a superblock exactly. *)

val block_index : Descriptor.t -> int -> int
(** [block_index desc base] is the index of the block at address [base]
    in [desc]'s superblock, computed without a division. Raises
    [Invalid_argument "Lf_alloc.free: not a block address"] unless
    [base] is the start of one of the superblock's [maxcount] blocks:
    {!free}'s wild-pointer guard. *)

val descriptor_table : t -> Descriptor.table
val desc_pool : t -> Desc_pool.t

val page_manager : t -> Page_manager.t option
(** The span reservoir + lock-free buddy backend (DESIGN.md §15) large
    blocks and superblock carving route through, or [None] — and those
    paths bit-identical to the paper's one-mmap-per-request figures —
    when the configuration's [page_manager] is [false]. *)

val heap_active_desc : t -> sc:int -> heap:int -> (Descriptor.t * int) option
(** The active descriptor of the given processor heap and its current
    credits, if any (quiescent snapshot). *)

val heap_partial_desc : t -> sc:int -> heap:int -> Descriptor.t option
val partial_list : t -> sc:int -> Partial_list.t

val op_counts : t -> int * int
(** Total [(mallocs, frees)] served (striped counters; quiescent). *)

val retry_sites : string list
(** Names of the allocator's CAS contention sites, derived from the
    label registry ([Labels.census_sites] then
    [Mm_pages.Pg_labels.census_sites], in registry order). *)

val pp_heap_summary : Format.formatter -> t -> unit
(** Human-readable quiescent snapshot of the heap: per size class, the
    number of live superblocks, installed actives, occupied Partial
    slots, listed partials and unreserved free blocks. *)

val retry_counts : t -> (string * int) list
(** Failed-CAS counts per contention site since creation (striped
    counters; quiescent snapshot). Quantifies where interference lands
    under a given workload (§4.2.3). *)

(** {2 Batched operations for the block-cache frontend}

    Used by {!Block_cache} (DESIGN.md §13). They are {e not} part of the
    paper's figures: each runs one figure's steps for a batch, so one
    CAS serves many blocks, in the same Active/Anchor protocol — the
    very code {!malloc} and {!free} run for one block. They compose
    with concurrent Fig. 4/6 operations and remain lock-free. Their CAS
    windows carry the [bc.*] labels. In the owner-biased mode the
    refill pops the caller's private list and the flush pushes each
    group as {!free} pushes one block. The array core
    ({!refill_into}, {!flush_from}) works on a slice of the caller's
    array and allocates nothing; the list forms wrap it. *)

val refill_into : t -> sc:int -> max:int -> int array -> pos:int -> int
(** [refill_into t ~sc ~max dst ~pos] reserves up to [max] blocks of
    size class [sc] from the calling thread's heap in ONE CAS on the
    Active word (taking the word's remaining credits, at most [max]),
    then pops the whole batch off the superblock free list in one
    tag-bumping anchor CAS. In the owner-biased mode it pops up to
    [max] blocks off the caller's private list instead. Returns the
    number [k] of blocks taken, [0] when the heap has no active
    superblock (or the caller no private blocks): the caller falls
    back to {!malloc}, which runs the ordinary MallocFromPartial /
    MallocFromNewSB paths and installs a new Active word.

    The payloads are written to [dst.(pos)] .. [dst.(pos + k - 1)]
    with the first block in free-list order LAST: popping the slice
    as a LIFO hands out the block {!malloc} would, then the others.
    [dst] needs [max] cells from [pos]. Allocates nothing; does not
    count toward {!op_counts}. *)

val refill_batch : t -> sc:int -> max:int -> int list
(** {!refill_into} returning the payloads as a list, in free-list
    order; [[]] when it takes none. *)

val flush_from : t -> int array -> pos:int -> n:int -> scratch:int -> unit
(** [flush_from t src ~pos ~n ~scratch] frees the [n] (base) payloads
    [src.(pos)] .. [src.(pos + n - 1)], grouping them by superblock
    and pushing each group back with one anchor CAS (the Fig. 6 push
    of a pre-chained run, including the EMPTY and FULL→PARTIAL
    transitions; a group holding every block of a FULL superblock
    releases it). Groups go in first-seen order, each chained in
    batch order; a large block goes back to the store during the
    first pass over the batch. [src.(scratch)] .. [src.(scratch + n -
    1)] is scratch space for the groups' descriptor ids and must not
    overlap the payloads. Payloads must be block payloads as returned
    by {!malloc} / {!refill_into}, and must have left the caller's
    own structures before the call: a thread killed inside a push
    must not leave behind blocks it will free again. Allocates
    nothing; does not count toward {!op_counts}. *)

val flush_batch : t -> int list -> unit
(** {!flush_from} over a list of payloads. *)

val classify : t -> tid:int -> base_payload:int -> int -> int
(** [classify t ~tid ~base_payload prefix] reports what kind of block
    [base_payload] is, given its prefix word (both as
    [Store.base_payload]/[Store.base_prefix] return them): [-1] for a
    large block,
    else [(sc lsl 1) lor local], where [local] is [1] when the block's
    superblock belongs to thread [tid]'s processor heap. One immediate,
    so a cached free allocates nothing. Applies {!free}'s wild-pointer
    guard ([Invalid_argument] on a non-block address). Read-only: the
    caller decides to cache, buffer or free. *)
