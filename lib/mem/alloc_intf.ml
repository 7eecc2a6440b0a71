(** The runtime-erased allocator instance — what workloads, experiments
    and tests pass around.

    Since the allocator stack is functorized over
    {!Mm_runtime.Runtime_intf.S} (DESIGN.md §18), an allocator's store
    type differs per runtime, so the old first-class-module packaging
    (one [ALLOCATOR] signature sharing a single [Store.t]) can no longer
    exist. An [instance] is instead a record of closures over one heap:
    each allocator functor provides an [instance] constructor with typed
    access to its own store and space meters, and everything above the
    allocator layer stays runtime-agnostic.

    Addresses returned by [malloc] point at the block payload (the 8-byte
    prefix sits just below, as in the paper); payload words are accessed
    through the [read_word]/[write_word] closures, which delegate to the
    instance's own store. *)

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
  space : unit -> Space.snapshot;
  os_stats : unit -> Store.os_stats;
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

(** Shared instance-construction plumbing for the allocator functors:
    [Pack (Rt)] knows the runtime's store/space instantiations, so each
    allocator only supplies its heap-specific closures. Applicative
    functor semantics make [Pack(Rt).Store.t] equal to the allocator's
    own [Store.Make(Rt).t]. *)
module Pack (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Store = Store.Make (Rt)
  module Space = Space.Make (Rt)

  let make ~name ~rt ~store ~malloc ~free ~usable_size ~check =
    {
      name;
      rt;
      malloc;
      free;
      usable_size;
      read_word = (fun ?racy addr -> Store.read_word ?racy store addr);
      write_word = (fun ?racy addr v -> Store.write_word ?racy store addr v);
      write_payload_round =
        (fun addr ~len ~times ->
          Store.write_payload_round store addr ~len ~times);
      space = (fun () -> Space.read (Store.space store));
      os_stats = (fun () -> Store.os_stats store);
      check;
    }
end
