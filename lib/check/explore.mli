(** Systematic schedule exploration over controlled-mode
    {!Mm_runtime.Sim} runs.

    Two strategies over the same substrate: [exhaustive] enumerates
    every schedule with at most [bound] preemptive deviations from the
    default policy (stateless model checking with a preemption bound, as
    in CHESS); [pct] samples schedules with randomized thread priorities
    and [depth - 1] priority-change points (probabilistic concurrency
    testing). Both report counterexamples as {!Schedule.t} values that
    replay deterministically and arrive already shrunk. *)

type point = {
  pt_runnable : int list;
  pt_current : int;
  pt_default : int;  (** what the default policy would have picked *)
  pt_chosen : int;
  pt_label : string option;
}

type trace = { points : point array; outcome : (unit, string) result }

type finding = {
  schedule : Schedule.t;  (** as first encountered *)
  minimized : Schedule.t;  (** 1-minimal: no single deviation removable *)
  error : string;
}

type report = {
  executions : int;  (** runs actually performed *)
  decision_points : int;  (** length of the default-schedule run *)
  complete : bool;
      (** exhaustive: the bounded space was drained within budget; pct:
          all runs executed. [false] whenever a finding stopped the
          search or the budget truncated it — never silently. *)
  finding : finding option;  (** first violation, if any *)
  reached : string list;
      (** every label some execution stopped at, sorted: what a target's
          [labels] is checked against *)
}

val default_choice : Mm_runtime.Sim.sched_point -> int
(** The deviation-free policy: continue the current thread, else the
    smallest runnable tid. *)

val run_strategy :
  Target.t ->
  threads:int ->
  ?on_label:(tid:int -> string -> Mm_runtime.Sim.action) ->
  ?notify_done:(int -> unit) ->
  ?quiescent_checks:bool ->
  (Mm_runtime.Sim.sched_point -> int -> int) ->
  trace
(** Run once under an arbitrary strategy (also given the decision
    index); a strategy answer that is not runnable falls back to the
    default policy. The returned trace records every decision point. *)

val follow : Schedule.t -> Mm_runtime.Sim.sched_point -> int -> int
(** The strategy that replays a schedule: its deviation at each decision
    point where it has a runnable one, the default policy elsewhere. *)

val replay : Target.t -> threads:int -> Schedule.t -> trace
(** Deterministically re-execute a schedule ([run_strategy] of
    {!follow}). *)

val shrink : Target.t -> threads:int -> Schedule.t -> Schedule.t
(** Greedy ddmin on the deviation list (replays candidates; returns the
    input unchanged if it does not fail). *)

val exhaustive :
  Target.t -> threads:int -> bound:int -> budget:int -> report
(** BFS over deviation sets with at most [bound] preemptive deviations,
    stopping at the first violation or after [budget] executions. *)

val witnesses :
  Target.t ->
  threads:int ->
  bound:int ->
  budget:int ->
  string list ->
  (string * Schedule.t) list
(** For each listed label some run reaches, the first schedule of
    {!exhaustive}'s enumeration whose run stops at it. The search stops
    as soon as every listed label has one, or at the budget; a label
    without a witness is left out. *)

val pct :
  Target.t -> threads:int -> depth:int -> runs:int -> seed:int -> report
(** [runs] independent PCT samples at bug depth [depth]. *)
