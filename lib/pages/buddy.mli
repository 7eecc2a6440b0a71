(** Lock-free binary buddy allocator over one span (DESIGN.md §15).

    An array-encoded tree of page-order nodes in the style of Marotta
    et al.'s non-blocking buddy system (PAPERS.md): node states move
    only by CAS ([acquire] claims or splits, [release] frees and then
    tries to fold sibling pairs back), and a coalesce that loses a
    claim race aborts fragmentation-tolerantly instead of blocking —
    two FREE siblings under a SPLIT parent are a legal resting state
    that the next release on either side re-folds. Single-threaded,
    release always coalesces maximally.

    Node state words are runtime atomics packed eight to a synthetic
    cache line (the same modelling substitution the allocator's anchors
    use — see {!Mm_runtime.Rt.fresh_line}), so the simulator charges
    the line traffic of the dense status array a real implementation
    would keep, and the [lib/check] explorer drives every CAS window
    through the {!Pg_labels} labels. *)

type t

val create :
  Rt.t ->
  ?on_acquire_retry:(unit -> unit) ->
  ?on_release_retry:(unit -> unit) ->
  ?on_coalesce_retry:(unit -> unit) ->
  order:int ->
  unit ->
  t
(** A fully-free buddy over [2^order] pages. The retry callbacks feed
    the allocator's striped CAS-retry census (one call per failed or
    abandoned CAS at the matching label). *)

val order : t -> int
val pages : t -> int

val acquire : t -> order:int -> int option
(** First-fit descent for an extent of [2^order] pages; returns its
    first page index within the span, or [None] when no subtree can
    serve the order (the caller fails over to the next span). *)

val release : t -> page:int -> order:int -> unit
(** Return the extent granted as ([page], [order]) and coalesce as far
    as claim races allow. Raises [Failure] on a double free. *)

val census : t -> int * int
(** Quiescent ([free_pages], [busy_pages]) over the published tree.
    Raises [Failure] if a node is still merge-claimed (only possible
    after a mid-protocol kill). *)

val check_invariants : t -> unit
(** {!census} plus the conservation check free + busy = {!pages}. *)
