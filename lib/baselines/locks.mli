(** Mutual-exclusion locks for the lock-based baseline allocators.

    Three kinds, mirroring the locks the paper evaluates (§4):
    - [Tas_backoff] — the "lightweight" test-and-set lock with exponential
      backoff the paper substitutes into Hoard and Ptmalloc (it halved
      Ptmalloc's contention-free latency);
    - [Ticket] — a FIFO-fair ticket lock;
    - [Pthread_like] — a test-and-set core plus extra fixed overhead
      modelling a kernel-assisted pthread mutex (the baselines' stock
      configuration).

    Acquire performs the instruction fence a critical section needs on
    entry and release the memory fence it needs on exit (the paper's
    §4.2.1 accounting of lock fence costs), so the latency comparison
    against the fence-light lock-free allocator is faithful. Spinners
    yield the processor periodically, so a preempted lock holder can run
    again (§1 preemption discussion). *)

val holder_label : string
(** [Rt.label] point reached immediately after every successful
    acquisition; fault-injection tests kill or pause threads here to
    create dead or preempted lock holders. Shared by both compiled
    copies. *)

type t

val create : Rt.t -> Mm_mem.Alloc_config.lock_kind -> t

val placeholder : Rt.t -> t
(** A lock that is never taken and consumes no synthetic line: what the
    record of a flat table's dead slot holds (DESIGN.md §18). *)

val acquire : t -> unit
val try_acquire : t -> bool
val release : t -> unit
val with_lock : t -> (unit -> 'a) -> 'a
(** Not exception-safe on purpose: baseline allocators never raise while
    holding a lock, and unwinding would mask bugs in tests. *)

val acquisitions : t -> int
(** Total successful acquisitions (quiescent snapshot; tests/metrics). *)

val contended_acquisitions : t -> int
(** Acquisitions that found the lock held at least once. *)
