(** The experiment catalogue: one entry per table/figure of the paper's
    evaluation (§4) plus the ablations DESIGN.md §4 calls out. Each
    experiment runs the relevant workloads over the relevant allocators —
    scalability figures on real domains when the host has a CPU for
    each of the sweep's threads (on the 16-CPU simulated machine
    otherwise, see {!figure_runtime}), latency tables on
    the real runtime, ablations on the simulator — and renders a
    paper-style table together with the paper's qualitative expectation,
    so EXPERIMENTS.md can record paper-vs-measured side by side. *)

type mode = Quick | Full

type outcome = {
  id : string;
  title : string;
  runtime : string;
      (** ["real"] or ["simulated"] — which runtime produced the numbers.
          Scalability figures use real domains when {!figure_runtime}
          says so and the 16-CPU simulation otherwise; the label keeps
          titles and the JSON payload honest either way. *)
  expectation : string;  (** what the paper reports, in one sentence *)
  lines : string list;  (** rendered result table *)
  os : (string * int) list;
      (** Raw OS-census counters of the lock-free allocator ([ops]/
          [mmap_calls]/[munmap_calls]/[sb_allocs]/[sb_reuses]/...),
          summed over the experiment's "new" data points: the inputs of
          the census line that ends [lines]. *)
}

val figure_runtime : cpus:int -> threads:int list -> [ `Real | `Simulated ]
(** Where a scalability sweep over [threads] runs on a host with [cpus]
    CPUs: [`Real] when every thread count of the sweep has a CPU per
    thread ([cpus >= ] the largest of [threads]), [`Simulated] (the
    16-CPU machine) otherwise — on fewer CPUs the top of the curve
    would measure time-slicing, not the allocator. *)

val ids : string list
(** Every experiment id, in DESIGN.md order. *)

val run : string -> mode:mode -> seed:int -> outcome
(** Raises [Invalid_argument] on an unknown id. Every outcome's table
    ends with an OS-traffic census line for the lock-free allocator
    (mmap/munmap syscalls and superblock pool traffic per 1k workload
    ops, summed over the experiment's "new" data points on the runtime
    named by [runtime]). *)

val to_json : mode:mode -> seed:int -> outcome list -> Mm_obs.Json.t
(** The machine-readable bench payload (format ["mm-bench/2"]): [mode],
    [seed] and one object per outcome with [id], [title], [runtime],
    [expectation], [lines] and the [os] counters. *)

val print_outcome : Format.formatter -> outcome -> unit
