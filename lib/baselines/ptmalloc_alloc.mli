(** Ptmalloc-style baseline: serial heaps ("arenas") each behind one lock;
    malloc trylocks its last arena, sweeps the others, and creates new
    arenas when all are busy; free locks the owning arena (paper §2.2). *)

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

val arena_count : t -> int
(** Arenas currently in the list — the paper observes this exceeding the
    thread count under Larson (22 arenas for 16 threads). *)
