(** The RUNTIME signature: everything the allocator stack may ask of
    its execution environment.

    Every runtime-dependent module in [lib/lockfree], [lib/mem],
    [lib/pages], [lib/core] and [lib/baselines] is a body over a module
    [Rt] of this signature that the body does not bind, compiled
    exactly twice (DESIGN.md §18):

    - {!Real_rt}: [t = unit], atomics are [Stdlib.Atomic.t] directly,
      memory/label/fence instrumentation compiles to straight-line code
      with no [Sim] check on any path. This is the dispatch-free backend
      behind the real-hardware benchmarks.
    - {!Sim_rt}: [t = Sim.t], every operation charges the deterministic
      simulated multiprocessor, bit-identical to the historical
      value-dispatch semantics (same [Sim.step_*] sequence, same
      synthetic cache-line ids).

    {!Rt} is not a third backend but a selector: harness code that
    picks a runtime at run time calls [Rt.backend] once per run and gets
    one of these two modules with its handle.

    Capability flags: [is_sim] marks backends whose memory is purely
    simulated (enables e.g. out-of-bounds poisoning checks);
    [controllable] marks backends exposing controlled schedules, label
    interception and kill/stall injection (lib/check only — mm-sa's
    sim-capability check). *)

module type S = sig
  type t
  (** Runtime handle threaded through every structure: [unit] on the
      real backend, the simulator instance on the simulated one. *)

  type 'a atomic

  val name : string
  val is_sim : bool
  val controllable : bool

  val max_threads : int
  (** Upper bound on concurrently running threads (sizes hazard-pointer
      tables and per-thread slots). *)

  val fresh_line : unit -> int
  (** A synthetic cache-line id never used by simulated memory. *)

  module Obs : sig
    type kind = Rt_base.Obs.kind =
      | Cas_ok
      | Cas_fail
      | Transition
      | Hp_scan
      | Mmap
  end

  module Atomic : sig
    val make : t -> ?line:int -> 'a -> 'a atomic

    val make_contended : t -> 'a -> 'a atomic
    (** [make] for a word that more than one domain writes: on the real
        backend the atomic gets a cache line of its own (OCaml 5.2's
        [Atomic.make_contended] layout), so writers of neighbouring words
        do not invalidate it. The simulator already gives every atomic a
        line of its own ([fresh_line]); there it is exactly [make]. *)

    val get : 'a atomic -> 'a
    val set : 'a atomic -> 'a -> unit

    val compare_and_set : 'a atomic -> 'a -> 'a -> bool
    (** CAS with physical (immediate-value) comparison. *)

    val fetch_and_add : int atomic -> int -> int
    val incr : int atomic -> unit
  end

  val slot_lines : int -> int array
  (** The synthetic lines of a flat id→record table of [n] slots
      (DESIGN.md §18), one [fresh_line] each in index order: the lines
      the slots' atomics took when the table was an atomic per slot.
      Empty on the real backend, which charges nothing. *)

  val touch_slot : t -> int array -> int -> write:bool -> unit
  (** [touch_slot t lines id ~write]: charge the atomic access that
      slot [id]'s plain load or store stands for, on [lines.(id)]. Call
      it just before the access, where the atomic would have been
      charged. A no-op on the real backend. *)

  val read_word : t -> Bytes.t -> int -> line:int -> int
  val write_word : t -> Bytes.t -> int -> line:int -> int -> unit
  val touch : t -> line:int -> write:bool -> unit
  val touch_batch : t -> line:int -> write:bool -> count:int -> unit
  val fence : t -> unit
  val cpu_relax : t -> unit
  val work : t -> int -> unit
  val yield : t -> unit
  val syscall : t -> unit

  val label : t -> string -> unit
  (** Named instrumentation point inside lock-free code. Free (one load
      and one branch) on the real backend unless a hook is installed. *)

  val obs_event : t -> Obs.kind -> string -> unit
  val self : t -> int
  val num_cpus : t -> int
  val now : t -> float
  val parallel_run : t -> (int -> unit) array -> Rt_base.run_result
end
