(** The runtime-erased allocator instance — what workloads, experiments
    and tests pass around.

    The allocator stack is compiled once per runtime (DESIGN.md §18), so
    an allocator's store type differs per runtime and no single
    first-class-module signature can share one [Store.t]. An [instance]
    is instead a record of closures over one heap: each allocator
    provides an [instance] constructor (built on [Store.instance]) with
    typed access to its own store and space meters, and everything above
    the allocator layer stays runtime-agnostic. This module is not
    copied per runtime, so both copies return the same types.

    Addresses returned by [malloc] point at the block payload (the 8-byte
    prefix sits just below, as in the paper); payload words are accessed
    through the [read_word]/[write_word] closures, which delegate to the
    instance's own store. *)

(** OS-traffic census of one store; [Store.os_stats] re-exports it with
    the field documentation. *)
type os_stats = {
  mmap_calls : int;
  munmap_calls : int;
  sb_allocs : int;
  sb_frees : int;
  sb_reuses : int;
  large_mmaps : int;
  large_munmaps : int;
  pages_requested : int;
  pages_granted : int;
}

(** Space meters of one store; [Space.snapshot] re-exports it. *)
type space_snapshot = {
  mapped : int;
  mapped_peak : int;
  used : int;
  used_peak : int;
}

type instance = {
  name : string;  (** short identifier used in experiment output *)
  rt : Mm_runtime.Rt.t;
      (** the runtime the instance runs on: workloads label result rows
          with it and unpack [Rt.backend] once per run for the threads,
          atomics and work they need *)
  malloc : int -> int;
  free : int -> unit;
  usable_size : int -> int;
  read_word : int -> int;
  write_word : int -> int -> unit;
  write_payload_round : int -> len:int -> times:int -> unit;
  space : unit -> space_snapshot;
  os_stats : unit -> os_stats;
  check : unit -> unit;  (** validate invariants; requires quiescence *)
}
