(** Space accounting, shared by all allocators so that the paper's
    §4.2.5 space-efficiency comparison is apples-to-apples.

    Two meters: [mapped] is address space currently held from the
    (simulated) OS — the quantity the paper tracks as "maximum space used"
    — and [used] is the total size of blocks currently handed out by
    malloc. Both carry high-water marks maintained with CAS so they are
    exact under concurrency. *)

type snapshot = Alloc_intf.space_snapshot = {
  mapped : int;
  mapped_peak : int;
  used : int;
  used_peak : int;
}

type t

val create : Rt.t -> t

val add_mapped : t -> int -> unit
(** Positive on mmap, negative on munmap. *)

val add_used : t -> int -> unit
(** Positive on malloc, negative on free. *)

val read : t -> snapshot

val reset_peaks : t -> unit
(** Reset high-water marks to current values (between workload phases). *)
