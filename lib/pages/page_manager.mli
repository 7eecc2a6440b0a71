(** The page manager (DESIGN.md §15): a span reservoir over the store
    plus one lock-free {!Buddy} per span.

    Spans of [span_pages] pages are reserved up front (one simulated
    mmap each, scalloc-style) and published into a fixed slot array by
    CAS; they are never unmapped — released extents coalesce in place
    for reuse. [Lf_alloc] routes large blocks and superblock carving
    here when [Alloc_config.page_manager] is on; requests no span can
    serve ([None]) fail over to the store's direct-map path, so the
    reservoir running out is a performance event, never an error. *)

type t

type stats = {
  spans : int;  (** spans reserved (won the publish CAS) *)
  span_races : int;  (** candidate spans mapped but lost the publish *)
  grants : int;
  releases : int;
  fallbacks : int;  (** requests the reservoir could not serve *)
}

val create :
  Rt.t ->
  Store.t ->
  ?max_spans:int ->
  ?on_acquire_retry:(unit -> unit) ->
  ?on_release_retry:(unit -> unit) ->
  ?on_coalesce_retry:(unit -> unit) ->
  ?on_span_retry:(unit -> unit) ->
  span_pages:int ->
  unit ->
  t
(** [span_pages] must be a power of two. Default [max_spans] 64. The
    retry callbacks feed the allocator's striped CAS-retry census. *)

val span_pages : t -> int

val alloc : t -> len:int -> int option
(** A page-aligned extent of at least [len] bytes (rounded up to a
    power-of-two page count — the internal fragmentation the OS census
    reports). Reserves a fresh span when every published one is
    exhausted; [None] once the slot array is full or the request
    exceeds a whole span. *)

val free : t -> int -> len:int -> bool
(** [free t addr ~len] returns the extent granted for [addr] (with the
    same [len] as the matching {!alloc}) to its span's buddy and
    coalesces. [false] if [addr] lies in no span — i.e. it came from
    the direct-map fallback and the caller must unmap it instead. *)

val owns : t -> int -> bool
(** Whether [addr] lies inside a published span. *)

val stats : t -> stats
val spans : t -> int
(** Number of published spans. *)

val check_invariants : t -> unit
(** Quiescent: every span's buddy passes {!Buddy.check_invariants}. *)
