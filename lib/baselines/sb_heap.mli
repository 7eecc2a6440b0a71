(** Serial superblock-heap core shared by the lock-based baseline
    allocators (libc-style, Hoard, Ptmalloc).

    Same geometry as the lock-free allocator — superblocks carved into
    equal blocks per size class, an in-block free list, an 8-byte prefix
    holding the (serial) descriptor id — but all descriptor state is plain
    mutable data; the baseline allocators protect it with {!Locks}, each
    with its own locking topology. Sharing the substrate keeps latency and
    space comparisons between baselines and the lock-free allocator about
    the algorithms, not about the data layout.

    Locking contract: every function that takes a {!heap} requires the
    caller to hold that heap's lock. *)

module Sdesc : sig
  type t = {
    id : int;
    lock : Locks.t;  (** per-superblock lock (Hoard's stats updates) *)
    line : int;  (** simulated cache line of the hot descriptor fields *)
    mutable sb : int;
    mutable sz : int;
    mutable maxcount : int;
    mutable avail : int;  (** free-list head block index *)
    mutable count : int;  (** free blocks *)
    mutable owner : int;  (** uid of the owning heap *)
    mutable sc : int;  (** size class *)
  }
end

type ctx
(** Substrate shared by all heaps of one allocator instance: store, size
    classes, descriptor table. *)

type heap

val create_ctx :
  Rt.t -> Mm_mem.Alloc_config.t -> op_overhead:int -> ctx
(** [op_overhead] is charged as local work on every malloc/free, modelling
    the allocator's bookkeeping (binning, boundary tags); the baselines
    differ in how heavy theirs is. *)

val rt : ctx -> Rt.t
val store : ctx -> Store.t
val classes : ctx -> Mm_mem.Size_class.t
val charge_overhead : ctx -> unit

val create_heap : ctx -> lock_kind:Mm_mem.Alloc_config.lock_kind -> heap
val heap_uid : heap -> int
val heap_lock : heap -> Locks.t
val heap_of_uid : ctx -> int -> heap
val sdesc_of_prefix : ctx -> int -> Sdesc.t

val class_of_request : ctx -> int -> int option
val large_malloc : ctx -> int -> int
val large_free : ctx -> int -> unit

val usable_size : ctx -> int -> int

val pop_block : ctx -> heap -> int -> int option
(** [pop_block ctx heap sc] takes a block from one of the heap's partial
    superblocks of class [sc], writing its prefix; [None] if the heap has
    no free block of that class. Returns the payload address. *)

val new_superblock : ctx -> heap -> int -> Sdesc.t
(** mmap a superblock for class [sc] into the heap. *)

val push_block : ctx -> Sdesc.t -> int -> [ `Stays | `Superblock_empty ]
(** Return payload [addr] to its superblock. The caller must hold the lock
    of the heap that owns the superblock. *)

val release_superblock : ctx -> heap -> Sdesc.t -> unit
(** munmap a (typically empty) superblock and discard its descriptor. *)

val maybe_release : ctx -> heap -> Sdesc.t -> surplus:int -> unit
(** Release the (empty) superblock only if the heap already caches more
    than [surplus] empty superblocks of its class — the trim hysteresis
    real dlmalloc-family allocators apply instead of unmapping eagerly. *)

val detach_superblock : ctx -> heap -> Sdesc.t -> unit
(** Remove the superblock from the heap's lists and accounting, leaving it
    owned by nobody (migration, step 1 — both heap locks held by caller as
    its topology requires). *)

val attach_superblock : ctx -> heap -> Sdesc.t -> unit
(** Migration, step 2: give the superblock to [heap]. *)

val take_superblock : ctx -> heap -> int -> Sdesc.t option
(** Detach and return a superblock of class [sc] with free blocks,
    preferring the emptiest (Hoard's global-heap handout). *)

val empty_superblocks : ctx -> heap -> int -> Sdesc.t list
(** The heap's fully-empty superblocks of class [sc]. *)

val free_blocks : heap -> int
val total_blocks : heap -> int

val check_heap_invariants : ctx -> heap -> unit
(** Quiescent: free-list walks, counts, prefix integrity. Raises on
    violation. *)
