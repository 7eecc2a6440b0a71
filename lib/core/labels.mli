(** Named instrumentation points inside the lock-free allocator.

    Each label marks a place where the paper's progress argument says a
    thread may be {e arbitrarily delayed or killed} without blocking other
    threads. The allocator calls [Rt.label] at each; under simulation the
    fault-injection tests pause or kill a victim thread at every one of
    them and assert system-wide progress (DESIGN.md §6), and [lib/check]'s
    schedule explorer uses them as context-switch points. Zero cost on the
    real runtime unless a hook is installed.

    The discipline this registry rests on — every CAS retry loop of
    Figs. 4-7 carries a label inside its read-to-CAS window, [all] lists
    every binding exactly once, and every binding is used — is no longer
    a manual audit: mm-sa ([lib/sa], checks label-dominance and
    label-registry, DESIGN.md §16) enforces it on every [dune runtest]
    via the [@sa] alias. The lock-free building blocks (MS queue,
    Treiber stack, tagged id stack) carry their own labels in
    [Mm_lockfree.Lf_labels]. *)

val ma_read_active : string
(** MallocFromActive: read Active, before the reservation CAS. *)

val ma_reserved : string
(** MallocFromActive: reservation CAS succeeded, before the pop. *)

val ma_pop_cas : string
(** MallocFromActive: before the anchor pop CAS. *)

val ma_popped : string
(** MallocFromActive: block popped, before UpdateActive / prefix write. *)

val ua_install : string
(** UpdateActive: before the CAS reinstalling the superblock. *)

val ua_credits_cas : string
(** UpdateActive: install failed, inside the credit-return loop, before
    the anchor CAS (Fig. 4 UpdateActive lines 4-8). *)

val ua_return_credits : string
(** UpdateActive: install failed, credits returned, before parking the
    superblock in the Partial slot. *)

val mp_got_partial : string
(** MallocFromPartial: obtained a partial descriptor. *)

val mp_reserve_cas : string
(** MallocFromPartial: before the block-reservation CAS. *)

val mp_pop_cas : string
(** MallocFromPartial: before the reserved-block pop CAS. *)

val hgp_slot_cas : string
(** HeapGetPartial: before the CAS taking the descriptor out of the
    heap's Partial slot. *)

val mnsb_install : string
(** MallocFromNewSB: before the CAS installing the new superblock. *)

val free_cas : string
(** free: before the anchor push CAS. *)

val free_empty : string
(** free: superblock became EMPTY, before returning it to the OS. *)

val free_put_partial : string
(** HeapPutPartial: before the Partial-slot swap CAS. *)

val red_slot_cas : string
(** RemoveEmptyDesc: before the CAS clearing the heap's Partial slot. *)

val desc_alloc : string
(** DescAlloc: before the hazard freelist's pop CAS. (The tagged and
    reuse pools' windows are {!Mm_lockfree.Lf_labels.tis_pop_cas} and
    [tis_push_cas], inside [Tagged_id_stack].) *)

val desc_refill : string
(** DescAlloc: freelist empty, before the CAS installing a fresh batch
    (Fig. 7 lines 5-9). *)

val desc_retire : string
(** DescRetire: before making the descriptor available again. *)

val desc_push : string
(** Descriptor freelist push: inside the push CAS loop (Fig. 7
    DescRetire; reached via hazard-pointer reclamation on the default
    pool). *)

val bc_reserve_cas : string
(** Block-cache refill: before the CAS reserving a {e batch} of credits
    on Active (the amortized Fig. 4 reservation; DESIGN.md §13). *)

val bc_pop_cas : string
(** Block-cache refill: before the anchor CAS popping the reserved batch
    off the superblock free list in one step. *)

val bc_flush_cas : string
(** Block-cache flush: before the anchor CAS pushing a batch of freed
    blocks back (the amortized Fig. 6 push). *)

val pub_push : string
(** Owner-biased free lists (DESIGN.md §19): before the CAS pushing a
    remotely freed block onto its superblock's public list
    ({!Pub_word}). *)

val pub_claim : string
(** Owner-biased free lists: before a CAS that claims or transfers the
    public list — the owner's bulk claim, the owner handoff, and the
    acquirer's own flip. *)

val ob_freeze : string
(** Owner-biased free lists: an acquirer that owns a partial
    superblock's pub word, before the anchor CAS that freezes the anchor
    at FULL(0,0) and takes its whole chain private (a free that read the
    pub word unowned may still push onto the anchor until then). *)

val all : string list
(** Every label above; fault-injection tests iterate this list. *)

val census_sites : (string * string list) list
(** The contention-sites census registry: [(site, labels)] rows, in
    table order. Each site groups the labels whose failed CASes one
    striped retry counter of {!Lf_alloc} counts; the harness's sites
    table and {!Lf_alloc.retry_counts} both derive their row set from
    this list (followed by [Mm_pages.Pg_labels.census_sites]), so a new
    label appears in every census by being added here. *)

val census_markers : string list
(** Labels with no striped retry counter (pure scheduling points, or
    one-shot CAS windows). [census_sites]'s labels and [census_markers]
    partition [all]; a test asserts this. *)
