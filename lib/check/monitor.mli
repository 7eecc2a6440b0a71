(** Lock-freedom monitor: fault injection at every instrumentation label
    of a target, under the explorer's controlled schedules.

    For each label of [target.labels], the first thread to reach it is
    either killed or stalled until every other thread has finished its
    whole workload. Lock-freedom demands the remaining threads complete
    either way; a deadlock, livelock or oracle violation in the
    remainder of the run falsifies it. This is the same claim the
    fault-injection test-suite checks for the full allocator, made
    available per-target and per-schedule from the [check] CLI. *)

type mode = Kill | Stall

(** The schedule a probe runs. *)
type source =
  | Round of int  (** 0 = default schedule, >0 = seeded random schedule *)
  | Witness of Schedule.t
      (** for a label no round reaches: the first schedule of a
          bounded-exhaustive search (bound 3, as [check quick]) that
          reaches it ({!Explore.witnesses}) *)

type entry = {
  label : string;
  mode : mode;
  source : source;
  fired : bool;
      (** whether the workload reached the label at all. {!run} probes
          only the labels a fault-free census run of the round's
          schedule reaches; an entry that cannot fire is recorded with
          [fired = false] and [result = Ok ()] without being run. A
          label no round reaches gets one more probe per mode, on its
          witness schedule, which fires. *)
  result : (unit, string) result;
}

type report = {
  entries : entry list;
  ok : bool;  (** every entry that fired completed cleanly *)
}

val mode_name : mode -> string

val source_name : source -> string
(** ["round N"] or ["schedule \"at:tid,...\""]. *)

val probe :
  Target.t ->
  threads:int ->
  label:string ->
  mode:mode ->
  source:source ->
  entry

val run : Target.t -> threads:int -> modes:mode list -> rounds:int -> report
