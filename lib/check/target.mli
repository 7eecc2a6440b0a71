(** Checkable systems under test.

    A target bundles a structure, a small oracle-instrumented workload
    over it, and the instrumentation labels at which its schedules
    branch. [run] builds a {e fresh} simulator in controlled mode and
    executes the workload under the given strategy, so a (target,
    threads, decisions) triple determines the run completely — the
    explorer's replay guarantee. *)

type t = {
  name : string;
  doc : string;
  default_threads : int;
  labels : string list;
      (** instrumentation points relevant to this target (for the
          lock-freedom monitor) *)
  run :
    threads:int ->
    ?on_label:(tid:int -> string -> Mm_runtime.Sim.action) ->
    ?notify_done:(int -> unit) ->
    ?quiescent_checks:bool ->
    sched:(Mm_runtime.Sim.sched_point -> int) ->
    unit ->
    (unit, string) result;
      (** [Error] carries an oracle violation, invariant failure,
          deadlock or livelock diagnostic. [on_label] injects faults (it
          applies before the strategy is consulted); [notify_done tid]
          is called as each thread body completes, which is how the
          monitor expresses "stall until every other thread is done";
          [quiescent_checks] (default true) runs the end-of-run
          invariant/conservation checks — disable for kill runs, after
          which quiescent invariants legitimately do not hold. *)
}

val lf_alloc : t
(** The paper's allocator (tagged anchors): one shared processor heap,
    maxcredits 2, eager descriptor recycling; three malloc/free per
    thread under the address-exclusivity oracle. Expected clean. *)

val lf_alloc_notag : t
(** Same workload with {!Mm_mem.Alloc_config.t.anchor_tag} off — the
    deliberately planted ABA bug the explorer must find. *)

val lf_alloc_cached : t
(** The same oracle workload through the block-cache frontend
    ([Mm_core.Block_cache], cache capacity 2, batch 2), exercising the
    batched refill/flush CAS windows. Expected clean: cached blocks of
    a killed thread leak but are never double-allocated. *)

val lf_alloc_owner_biased : t
(** The oracle workload with owner-biased private/public free lists on
    ({!Mm_mem.Alloc_config.t.free_lists} = [`Owner_biased], DESIGN.md
    §19) and eight-block superblocks: nine mallocs per thread hand the
    first superblock off and acquire or carve another, two frees push
    onto the handed-off superblock's anchor while the neighbour may be
    acquiring it (labels [pub.claim] / [ob.freeze] against [free.cas]),
    and a mailed block comes back as a remote free ([free.cas] or
    [pub.push]). Expected clean: a thread killed mid-acquire leaks its
    superblock, never double-serves a block. *)

val buddy : t
(** The page manager's span reservoir + lock-free buddy
    ([Mm_pages.Page_manager], 4-page spans) driven directly: each
    thread's 1+2+1-page pattern forces splits, exact fits, coalescing
    and a racing second span reservation, under per-page address
    exclusivity (no two live grants may overlap in any page). Expected
    clean: a thread killed mid-claim strands its extent, never hands it
    out twice. *)

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
