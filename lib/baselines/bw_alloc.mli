(** Comparison target "bw": a Blelloch–Wei-style constant-time
    fixed-size allocator (arXiv:2008.04296, see PAPERS.md and
    docs/RECLAMATION.md).

    Per thread and size class, a private allocation list and a private
    free list of at most B = 16 blocks (plain O(1) pointer pops/pushes,
    no atomics), balanced through one shared lock-free Treiber stack of
    exactly-B-block batches: an empty allocation list adopts the
    thread's own free list, else steals a batch from the shared stack
    (one CAS per B operations), else carves a fresh superblock. A free
    list reaching B blocks is published as a batch in one CAS. Blocks
    are identified by a size-class id in the 8-byte prefix — no
    descriptors, no reclamation, and superblocks are never unmapped:
    the scheme trades bounded space for constant time, the opposite
    corner of the design space from the paper's
    credit/anchor machinery. Implements
    {!Mm_mem.Alloc_intf.ALLOCATOR}. *)

type t

val name : string
val create : Rt.t -> Mm_mem.Alloc_config.t -> t
val malloc : t -> int -> int
val free : t -> int -> unit
val usable_size : t -> int -> int
val store : t -> Store.t
val rt : t -> Rt.t

val instance : ?name:string -> Mm_runtime.Rt.t -> t -> Mm_mem.Alloc_intf.instance

val op_counts : t -> int * int
(** Total (mallocs, frees) issued so far (striped; quiescent reads). *)

val check_invariants : t -> unit
(** Quiescent: every free block on exactly one null-terminated chain of
    its bookkept length; shared batches hold exactly B blocks. *)
