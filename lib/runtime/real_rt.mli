(** The dispatch-free real backend of {!Runtime_intf.S}: atomics are
    OCaml 5 [Stdlib.Atomic] values with no wrapper, word access is a
    bare [Bytes] load/store, and labels/fences/obs sites compile to one
    load and one branch unless a hook is installed. The copy of the
    allocator stack compiled against this module is what the
    real-hardware benchmarks (BENCH_*.json) measure. *)

include Runtime_intf.S with type t = unit
