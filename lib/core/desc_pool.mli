(** The lock-free descriptor freelist — [DescAlloc] / [DescRetire]
    (paper Fig. 7 and §3.2.5).

    Descriptors are recycled, so the freelist pop is exposed to the ABA
    problem; the paper offers two cures and we implement both, plus a
    third that sidesteps reclamation entirely:

    - {b Hazard} (paper default, [SafeCAS] via hazard pointers [17,19]):
      a popping thread publishes a hazard pointer to the candidate head
      and re-validates before CASing; retired descriptors re-enter the
      freelist only after a scan proves no thread protects them.
    - {b Tagged} (paper [18] alternative): the freelist head packs an IBM
      ABA tag next to the descriptor id; pops bump the tag
      ([Tagged_id_stack]).
    - {b Reuse} ("Reuse, don't Recycle" — Arbel-Raviv & Brown;
      DESIGN.md §17): the same tagged stack behind a per-thread LIFO,
      the front, of up to [batch_size] descriptors. A retired
      descriptor goes on the retiring thread's front (plain writes, no
      CAS); only a full front pushes onto the stack, and only an empty
      one pops from it. There is no retire list and no scan — [hp.scan]
      and the [desc.alloc] / [desc.refill] / [desc.push] rows vanish
      from the census — and over-allocation is bounded by threads x
      [batch_size]. Under {b Tagged} the front holds nothing.

    When the freelist is empty, a batch of [batch_size] descriptors is
    created at once (the paper's "superblock of descriptors"); the thread
    keeps one and offers the rest. If another thread stocked the hazard
    freelist concurrently, the paper returns the whole batch to the OS
    to avoid over-allocating; we do the same by discarding the unused
    records and recycling their ids. (The tagged kinds put the batch on
    the front and the stack instead, so no descriptor is ever
    discarded.) *)

type t

val default_batch_size : int
(** 64: descriptors per fresh batch unless [create] is told otherwise. *)

val create :
  Rt.t ->
  Descriptor.table ->
  kind:Mm_mem.Alloc_config.desc_pool_kind ->
  ?batch_size:int ->
  ?scan_threshold:int ->
  unit ->
  t
(** Default [batch_size]: {!default_batch_size}. [scan_threshold]
    overrides the hazard-pointer scan threshold (ignored by the tagged and
    reuse variants); small values make descriptor recycling frequent,
    which the checking subsystem relies on to exercise the reclamation
    path. For the reuse variant, [batch_size] also bounds the front;
    past it, retires go to the shared stack. *)

val alloc : t -> Descriptor.t
(** Pop a descriptor, allocating a fresh batch if none is available. The
    returned descriptor's mutable fields are stale; the caller owns it
    exclusively and must initialize them. *)

val retire : t -> Descriptor.t -> unit
(** Make a descriptor available for reuse (its superblock must already be
    detached). *)

val flush : t -> unit
(** Quiescent teardown helper: force hazard-pointer scans so every retired
    descriptor is back on the freelist (no-op for the tagged and reuse
    variants, which have no retire list). *)

val available : t -> int
(** Quiescent snapshot of freelist length plus retired-pending
    descriptors (tests). *)
