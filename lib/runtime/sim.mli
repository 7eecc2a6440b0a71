(** Deterministic simulated shared-memory multiprocessor.

    This is the hardware substitute for the paper's 16-way POWER3 / 8-way
    POWER4 machines (see DESIGN.md §2): the reproduction container has a
    single physical CPU, so parallel speedups are *simulated* rather than
    measured. Threads run as effect-handler continuations multiplexed over
    [cpus] virtual processors. Every shared-memory operation performed
    through [Sim_rt] yields an effect that the scheduler charges against the
    issuing CPU's virtual clock using {!Cost}, including a MESI-style
    cache-line ownership model, so contention, false sharing and lock
    convoys cost virtual time exactly where they would cost real time.

    Properties the rest of the repository relies on:
    - {b Determinism}: a run is a pure function of (config, thread bodies);
      the same seed always yields the same schedule, clocks and counters.
    - {b Preemption}: a thread that exhausts its quantum while another
      thread waits on the same CPU is context-switched, so lock-holder
      preemption pathologies are reproduced.
    - {b Fault injection}: threads can be blocked or killed at labelled
      points inside the allocator ([Sim_rt.label]), which is how the paper's
      availability and kill-tolerance claims are tested. *)

type t

(** Decision taken when a thread reaches a labelled point; see
    {!val-create}'s [on_label]. *)
type action =
  | Continue  (** proceed normally *)
  | Block_until of (unit -> bool)
      (** park the thread until the predicate becomes true; the predicate
          is re-evaluated between scheduling steps *)
  | Kill  (** terminate the thread instantly, as if the OS killed it *)

(** A scheduling decision point presented to an external strategy; see
    {!val-create}'s [sched]. *)
type sched_point = {
  sp_runnable : int list;
      (** tids that can take a step now, in ascending order; never empty *)
  sp_current : int;
      (** tid that executed the previous segment, or [-1] before the first *)
  sp_label : string option;
      (** label at which [sp_current] stopped, if it stopped at one *)
}

type counters = {
  atomics : int;  (** atomic operations executed *)
  plain : int;  (** plain word accesses executed *)
  fences : int;
  transfers : int;  (** cache lines pulled from a remote modified copy *)
  invalidations : int;  (** shared lines upgraded for writing *)
  syscalls : int;
  ctx_switches : int;
  yields : int;
  killed : int;
}

type result = {
  makespan_cycles : int;  (** max virtual clock over all CPUs at the end *)
  cpu_cycles : int array;  (** final per-CPU virtual clocks *)
  counters : counters;
}

exception Progress_timeout of string
(** Raised when the run exceeds its cycle budget — e.g. threads spinning on
    a lock whose holder was killed. The lock-freedom tests rely on this to
    distinguish "survivors finished" from "survivors livelocked". *)

exception Deadlock of string
(** Raised when unfinished threads remain but none is runnable. *)

val create :
  ?cpus:int ->
  ?costs:Cost.t ->
  ?seed:int ->
  ?max_cycles:int ->
  ?on_label:(tid:int -> string -> action) ->
  ?sched:(sched_point -> int) ->
  unit ->
  t
(** [create ()] builds a simulator instance. Defaults: 16 CPUs, default
    costs, seed 1, a large cycle budget, and no label interception.

    When [sched] is given the simulator runs in {e controlled} mode — the
    substrate of [lib/check]'s systematic schedule exploration. The
    cost-model scheduler (per-CPU clocks, quanta, preemption) no longer
    decides who runs: instead, whenever the current thread reaches a
    decision point the strategy is consulted with the set of runnable
    threads and its answer runs next, uninterrupted, until the following
    decision point. Decision points are exactly: the start of the run,
    every [Sim_rt.label] and [Sim_rt.yield] executed by the current
    thread, and the current thread finishing, blocking or being
    killed. [on_label] still applies first at labels (it can block or
    kill the arriving thread); [sched] then picks among whoever remains
    runnable. The strategy must return a member of [sp_runnable] or the
    run fails.
    Virtual clocks and counters are still maintained, and [max_cycles]
    still bounds the run, so controlled runs detect livelock the same way
    free-running ones do. A run is a pure function of (config, bodies,
    strategy decisions), which is what makes recorded schedules
    replayable. *)

val cpus : t -> int
val costs : t -> Cost.t

val run : t -> (int -> unit) array -> result
(** [run t bodies] executes [bodies.(i)] as thread [i] (pinned to CPU
    [i mod cpus]) until all threads are done or killed. Not reentrant: a
    body must not call [run]. The instance can be reused for further runs;
    clocks and counters restart from zero. *)

(** {2 Hooks used by [Sim_rt] — not for direct use by application code} *)

val in_sim : unit -> bool
(** True while the calling code is executing inside some [run]. *)

val current : unit -> t
(** The instance owning the calling thread. Raises if [not (in_sim ())]. *)

val self_tid : unit -> int
val now_cycles : unit -> int

val step_atomic : line:int -> write:bool -> unit
val step_mem : line:int -> write:bool -> unit

val step_mem_batch : line:int -> write:bool -> count:int -> unit
(** [count] same-line plain accesses charged as a single event: one
    coherence action plus [count] cache hits. *)

val step_fence : unit -> unit
val step_work : int -> unit
val step_yield : unit -> unit
val step_syscall : unit -> unit
val step_label : string -> unit
