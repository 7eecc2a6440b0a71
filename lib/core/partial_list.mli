(** Per-size-class lists of partial superblocks (paper §3.2.6).

    Two managements, both lock-free:
    - {b FIFO} (the paper's preference, reduces contention and false
      sharing): a Michael–Scott queue; [remove_empty] dequeues from the
      head, retiring the first empty descriptor it meets, giving up after
      cycling a small fixed number (4) of non-empty descriptors to the
      tail — each call is O(1), yet an empty descriptor buried behind a
      few partials is reclaimed in one call rather than one call per
      preceding partial.
    - {b LIFO}: a Treiber stack; [remove_empty] pops up to two
      descriptors, retiring empties and re-pushing the rest.

    Descriptors are inserted only by the unique thread that made them
    PARTIAL (or displaced them from a heap's Partial slot), so a
    descriptor is in at most one structure at a time. *)

type t

val create : Rt.t -> Mm_mem.Alloc_config.partial_policy -> t

val put : t -> Descriptor.t -> unit
(** [ListPutPartial]. *)

val get : t -> Descriptor.t option
(** [ListGetPartial]. May return a descriptor that has become EMPTY; the
    caller (MallocFromPartial) retires it and retries. *)

val remove_empty : t -> retire:(Descriptor.t -> unit) -> unit
(** [ListRemoveEmptyDesc]: ensure empty descriptors eventually become
    available for reuse. *)

val length : t -> int
(** Quiescent snapshot (tests). *)

val to_list : t -> Descriptor.t list
(** Quiescent snapshot, head/top first (tests). *)
