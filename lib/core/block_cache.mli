(** Per-thread block-cache frontend over {!Lf_alloc} (DESIGN.md §13).

    Not part of the paper: a single-owner, per-thread, per-size-class
    LIFO of blocks layered in front of the Fig. 4/6 paths. A cache hit
    or a cached free is pure thread-local array traffic — zero shared
    accesses, zero CAS. A miss refills by reserving a whole batch of
    credits in ONE CAS on the Active word and popping the batch with one
    tag-bumping anchor CAS, straight into the class's stack
    ({!Lf_alloc.refill_into}); overflowing and remote frees are pushed
    back in batches of one anchor CAS per superblock, from a slice of
    the thread's row ({!Lf_alloc.flush_from}). Neither allocates on the
    OCaml heap. Every shared-structure step is therefore still
    lock-free, and the frontend adds no retry window beyond the
    labelled batched CASes ([bc.*] in {!Labels}).

    The frontend always caches: the uncached configuration is
    {!Lf_alloc} itself. The harness name ["new-cached"] sets
    [cfg.cache], which {!create} requires. It is the [`Anchor]-mode
    thread-local layer: owner-biased free lists carry their own
    (a LIFO of kept blocks beside the owned superblocks, DESIGN.md
    §19), and {!create} rejects them.

    Progress and safety: a thread delayed or killed anywhere loses at
    most the blocks its own cache holds (they leak — they stay allocated
    in the backend, so they can never be handed out twice and their
    superblocks can never be reclaimed under a survivor); all other
    threads keep completing, exactly as for the bare allocator. A flush
    takes its blocks out of the cache before it pushes them, so a
    thread that later reuses a killed thread's id never frees them a
    second time. *)

type t

val name : string
(** Short identifier used in experiment output ("new", "hoard", ...). *)

val create : Rt.t -> Mm_mem.Alloc_config.t -> t
(** A fresh, independent heap (own store, own descriptors). Thread-safe
    for concurrent [malloc]/[free] once created. Raises
    [Invalid_argument] when [cfg.cache] is false or [cfg.free_lists] is
    [`Owner_biased]. *)

val malloc : t -> int -> int
(** [malloc t n] allocates a block with at least [n] payload bytes and
    returns its payload address (never [Addr.null]; raises
    [Invalid_argument] on negative [n], [Failure] on substrate
    exhaustion). [malloc t 0] returns a valid unique block. *)

val free : t -> int -> unit
(** Returns a block to the heap. [free t Addr.null] is a no-op. Freeing
    an address not obtained from [malloc] (or freeing twice) is a
    programming error with undefined (but memory-safe) behaviour, as in
    C. *)

val usable_size : t -> int -> int
(** Payload bytes actually available at an address returned by
    [malloc]; at least the requested size. *)

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

val backend : t -> Lf_alloc.t
(** The wrapped paper allocator (retry census, introspection). *)

type stats = {
  hits : int;  (** mallocs served from the cache (no shared access) *)
  misses : int;  (** mallocs that went to the backend *)
  refills : int;  (** batched refills performed *)
  refilled_blocks : int;  (** blocks obtained by those refills *)
  flushes : int;  (** batched flushes (overflow, remote, explicit) *)
  flushed_blocks : int;  (** blocks pushed back by those flushes *)
  remote_frees : int;  (** frees of another heap's blocks (buffered) *)
}

val stats : t -> stats
(** Striped counters, quiescent snapshot. *)

val op_counts : t -> int * int
(** Total [(mallocs, frees)] the application issued against this
    instance (frontend view). *)

val cached_blocks : t -> int
(** Blocks currently parked in all thread caches and remote buffers
    (quiescent snapshot). *)

val flush_current : t -> unit
(** Flush the {e calling} thread's entire cache (all classes + remote
    buffer) back to the backend. Tests use it to reach a state where the
    frontend holds nothing; callable only from a thread that owns its
    dense id (inside a run, or quiescently from the host). *)
