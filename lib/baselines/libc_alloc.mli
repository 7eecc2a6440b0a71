(** Libc-style baseline: one serial heap behind a single pthread-style
    mutex, with heavyweight per-operation bookkeeping — the paper's
    "default AIX 5.1 libc malloc" stand-in and the denominator of every
    reported speedup. See the implementation header for details. *)

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
