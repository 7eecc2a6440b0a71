(** Hoard-style baseline: lock-based per-processor heaps plus a global
    heap; malloc takes one lock in the common case, free two; empty
    superblocks migrate to the global heap, bounding space blowup
    (Berger et al., ASPLOS 2000; paper §2.2). *)

type t

val name : string
val create : Rt.t -> Mm_mem.Alloc_config.t -> t
val malloc : t -> int -> int
val free : t -> int -> unit
val usable_size : t -> int -> int
val store : t -> Store.t
val rt : t -> Rt.t
val check_invariants : t -> unit

val instance : ?name:string -> Mm_runtime.Rt.t -> t -> Mm_mem.Alloc_intf.instance
(** Package one heap as a runtime-erased {!Mm_mem.Alloc_intf.instance};
    the value-level runtime handle comes from the caller. *)
