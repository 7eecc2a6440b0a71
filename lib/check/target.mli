(** Checkable systems under test.

    A target is a name, the instrumentation labels its exploration
    reaches, and a subject: a per-thread body over a structure with its
    oracles, plus a quiescent check. {!run} owns everything else — a
    {e fresh} controlled-mode simulator, spawning, and the mapping of
    oracle violations, deadlock, livelock and invariant failures to a
    verdict — so a (target, threads, decisions) triple determines the
    run completely: the explorer's replay guarantee. *)

type subject = {
  body : int -> unit;  (** one thread's workload, given its tid *)
  quiescent : unit -> unit;
      (** end-of-run invariant/conservation checks; raise [Failure] or
          {!Oracle.Violation} *)
}

type t = {
  name : string;
  doc : string;
  labels : string list;
      (** exactly the labels the target's bounded-exhaustive exploration
          in [check quick] reaches, which the quick gate asserts; the
          lock-freedom monitor probes each of them *)
  subject : Mm_runtime.Sim.t -> threads:int -> subject;
      (** builds the structure on the given simulator *)
}

val run :
  t ->
  threads:int ->
  ?on_label:(tid:int -> string -> Mm_runtime.Sim.action) ->
  ?notify_done:(int -> unit) ->
  ?quiescent_checks:bool ->
  sched:(Mm_runtime.Sim.sched_point -> int) ->
  unit ->
  (unit, string) result
(** [Error] carries an oracle violation, invariant failure, deadlock or
    livelock diagnostic. [on_label] injects faults (it applies before
    the strategy is consulted); [notify_done tid] is called as each
    thread body completes, which is how the monitor expresses "stall
    until every other thread is done"; [quiescent_checks] (default
    true) runs the subject's quiescent check — disable for kill runs,
    after which quiescent invariants legitimately do not hold. *)

type alloc_body =
  threads:int -> malloc:(unit -> int) -> free:(int -> unit) -> int -> unit
(** A per-thread allocator workload over oracle-wrapped [malloc]/[free]
    of one fixed request size. *)

val allocator :
  (Mm_runtime.Sim.t -> Mm_mem.Alloc_intf.instance) ->
  size:int ->
  alloc_body ->
  Mm_runtime.Sim.t ->
  threads:int ->
  subject
(** The subject of every allocator target: the instance's [malloc] and
    [free] under the address-exclusivity oracle, and its [check] as the
    quiescent check. *)

val alloc_cfg : Mm_mem.Alloc_config.t
(** The heap of [lf_alloc], [lf_alloc_notag] and [lf_alloc_partial]:
    one processor heap, 4096-byte superblocks, maxcredits 2, descriptor
    scan threshold 1, 128 store slots. *)

val lf_alloc : t
(** The paper's allocator (tagged anchors): one shared processor heap,
    maxcredits 2, eager descriptor recycling; three malloc/free per
    thread under the address-exclusivity oracle. Expected clean. *)

val lf_alloc_notag : t
(** Same workload over a copy of [Lf_alloc] compiled against an [Anchor]
    whose [incr_tag] is the identity — the deliberately planted ABA bug
    the explorer must find. *)

val lf_alloc_cached : t
(** The same oracle workload through the block-cache frontend
    ([Mm_core.Block_cache], cache capacity 2, batch 2), exercising the
    batched refill/flush CAS windows. Expected clean: cached blocks of
    a killed thread leak but are never double-allocated. *)

val lf_alloc_owner_biased : t
(** Owner-biased free lists (DESIGN.md §19) with eight-block
    superblocks: ownership handoffs ([pub.claim], [ob.freeze]) race
    frees and a mailed remote free ([free.cas], [pub.push]); each
    thread's one-block LIFO keeps a free, hands it back to a malloc and
    overflows. Expected clean: a thread killed mid-acquire leaks its
    superblock. *)

val owner_biased : alloc_body
(** [lf_alloc_owner_biased]'s per-thread workload over 504-byte
    requests. *)

val owner_biased_cfg : Mm_mem.Alloc_config.t
(** [lf_alloc_owner_biased]'s heap: {!alloc_cfg}'s, owner-biased, with
    a one-block LIFO ([cache_blocks = 1]). *)

val lf_alloc_partial : t
(** MallocFromPartial (Fig. 4): {!partial} on the [lf_alloc] heap, so
    superblocks go FULL→PARTIAL, come back through a heap's [Partial]
    slot or the partial list, and drain to EMPTY. Expected clean. *)

val partial : alloc_body
(** [lf_alloc_partial]'s per-thread workload over 504-byte requests
    (eight blocks per superblock): 8 mallocs, free the first, one more
    malloc, free the rest. *)

val buddy : t
(** The page manager's span reservoir + lock-free buddy driven
    directly, under per-page address exclusivity. Expected clean: a
    thread killed mid-claim strands its extent, never hands it out
    twice. *)

val ms_queue : t
val desc_pool : t

val desc_pool_reuse : t
(** The reuse-in-place descriptor pool (DESIGN.md §17) with batch_size
    1, so the shared tagged stack's CAS windows ([tis.push_cas] /
    [tis.pop_cas]) are in the schedule space, under the
    exclusive-ownership oracle plus a per-slot anchor-tag monotonicity
    check across reuse lives. Expected clean. *)

val treiber_stack : t
(** Treiber stack as an id freelist: pre-seeded with one id per thread,
    each thread pops, briefly owns, and pushes back under the
    exclusive-ownership oracle. Expected clean. *)

val tagged_id_stack : t
(** Same workload over the tag-protected id stack (links held in an
    external array, as the descriptor pool uses it). Expected clean. *)

val all : t list
val find : string -> t option
