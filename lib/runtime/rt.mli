(** Runtime selector.

    Every allocator, lock and lock-free structure in this repository is
    a body over {!Runtime_intf.S}, compiled twice (DESIGN.md §18):

    - {!Real_rt}: operations map 1:1 onto OCaml 5 multicore primitives
      ([Atomic], [Domain]); used for genuine-hardware latency measurements
      (paper Table 1) and for concurrency stress tests.
    - {!Sim_rt}: operations become events of a deterministic simulated
      multiprocessor ({!Sim}); used to regenerate the paper's 16-processor
      scalability figures on a small host, and to inject thread
      blocking/killing for the lock-freedom tests.

    An [Rt.t] names one of the two. Code that picks the runtime at run
    time carries it and calls {!backend} once per run to get the
    specialized module and its handle:
    {[
      match Rt.backend rt with
      | Rt.Backend ((module R), r) ->
          let a = R.Atomic.make r 0 in
          ...
    ]}
    No operation here dispatches on [t] per call. *)

type t

val real : t
(** The OCaml-multicore-backed runtime. *)

val simulated : Sim.t -> t
(** A runtime backed by the given simulator instance. *)

val is_sim : t -> bool
val sim : t -> Sim.t option

val controllable : t -> bool
(** Whether this runtime exposes the simulator's control facilities
    (deterministic schedules, label interception, kill/stall injection).
    Code outside [lib/runtime] and [lib/check] may only reach those
    facilities behind this flag (ROADMAP item 4, lint R6), so every
    backend keeps the same observable surface. *)

val name : t -> string

type backend =
  | Backend : (module Runtime_intf.S with type t = 'r) * 'r -> backend
      (** A specialized runtime module packed with its handle: [()] for
          {!Real_rt}, the simulator for {!Sim_rt}. *)

val backend : t -> backend

val max_threads : int
(** Upper bound on concurrently running threads (sizes hazard-pointer
    tables and per-thread slots). *)

val fresh_line : unit -> int
(** A synthetic cache-line id never used by simulated memory. Consecutive
    calls return distinct lines (no false sharing between them). *)

val real_label_hook : (string -> unit) ref
(** Hook invoked by [Real_rt.label]; defaults to a no-op. Real-runtime
    stress tests install yield/noise injectors here. *)

(** {2 Observability}

    Event recording for [lib/obs] (DESIGN.md §12). The hook runs on the
    {e host} side: it is never charged to the simulator's cost model and
    never goes through a runtime atomic, so a simulated run is
    bit-identical — same schedule, cycles, counters — with tracing on or
    off. *)

module Obs : sig
  type kind = Rt_base.Obs.kind =
    | Cas_ok  (** a [compare_and_set] that succeeded *)
    | Cas_fail  (** a [compare_and_set] that failed (one retry) *)
    | Transition  (** superblock state change (lib/core) *)
    | Hp_scan  (** hazard-pointer scan (lib/lockfree) *)
    | Mmap  (** simulated mmap syscall (lib/mem) *)

  val compiled : bool
  (** Compile-time master switch (a literal in [rt_base.ml]): when
      flipped to [false] every recording site folds to dead code and the
      build has no tracing cost at all. [true] by default; with no hook
      installed each site then costs one load and one branch. *)

  val set_hook :
    (tid:int -> kind:kind -> label:string -> cycle:int -> unit) option ->
    unit
  (** Install (or, with [None], remove) the recording hook. The hook is
      called from the recording thread and must be allocation-free and
      non-blocking (lib/obs writes into a per-thread ring). [label] is
      the event's site: for CAS events, the last [label] the thread
      passed; [cycle] is [Sim.now_cycles] under simulation, a global
      event ordinal on the real runtime. Installing resets the per-thread
      label attribution. *)

  val hook_installed : unit -> bool
end

(** {2 Running threads} *)

type run_result = Rt_base.run_result = {
  elapsed : float;  (** wall seconds (real) or virtual seconds (sim) *)
  sim_result : Sim.result option;  (** simulation counters, if simulated *)
}

val parallel_run : t -> (int -> unit) array -> run_result
(** [parallel_run rt bodies] is the selected backend's [parallel_run]:
    it runs [bodies.(i)] as thread [i] to completion, as one [Domain]
    each on the real runtime, as simulated threads otherwise. Exceptions
    raised by bodies are re-raised. *)
