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
  read_word : ?racy:bool -> int -> int;
  write_word : ?racy:bool -> int -> int -> unit;
  write_payload_round : int -> len:int -> times:int -> unit;
  space : unit -> space_snapshot;
  os_stats : unit -> os_stats;
  check : unit -> unit;  (** validate invariants; requires quiescence *)
}

let instance_name i = i.name
let instance_rt i = i.rt
let instance_malloc i n = i.malloc n
let instance_free i addr = i.free addr
let instance_usable i addr = i.usable_size addr
let instance_read_word ?racy i addr = i.read_word ?racy addr
let instance_write_word ?racy i addr v = i.write_word ?racy addr v

let instance_write_payload_round i addr ~len ~times =
  i.write_payload_round addr ~len ~times

let instance_space i = i.space ()
let instance_os_stats i = i.os_stats ()
let instance_check i = i.check ()
