(** Traced workload runs: a workload executed under an [Mm_obs] tracer
    on the deterministic simulator, plus the allocator-specific reading
    of the resulting counters. Shared by [bin/trace.exe] and the
    [contention-sites] experiment, so the EXPERIMENTS.md census and the
    CLI report are the same computation. *)

val sim_cpus : int
(** CPUs of the simulated machine (16, the paper's POWER3). *)

val make_sim : ?cpus:int -> seed:int -> unit -> Mm_runtime.Sim.t
(** A fresh simulated machine ([cpus] defaults to [sim_cpus]) with the
    cycle budget shared by every experiment and trace. *)

val threadtest_quick : Mm_workloads.Threadtest.params
(** The quick-mode parameters shared with [Experiments] (so the CLI
    report and the EXPERIMENTS.md census describe the same run). *)

val pc_quick : work:int -> Mm_workloads.Producer_consumer.params

type capture = {
  trace : Mm_obs.Trace_file.t;
  metric : Mm_workloads.Metrics.t;  (** with [obs] populated *)
  retry_counts : (string * int) list;
      (** the lock-free allocator's own striped retry census
          ([Lf_alloc.retry_counts]); [[]] for other allocators. Obs
          must agree with it — tested in [test_obs]. *)
}

val capture :
  ?cpus:int ->
  ?nheaps:int ->
  ?capacity:int ->
  ?allocator:string ->
  ?page_manager:bool ->
  ?desc_scan_threshold:int ->
  name:string ->
  threads:int ->
  seed:int ->
  (Mm_mem.Alloc_intf.instance -> threads:int -> Mm_workloads.Metrics.t) ->
  capture
(** Fresh simulator (16 CPUs, the experiments' cycle budget), fresh
    heap of [allocator] (default ["new"]) with [nheaps] processor heaps
    (default = [cpus]), tracer installed around the workload body.
    Allocator ["new-reuse"] is the paper allocator over the
    reuse-in-place descriptor pool (DESIGN.md §17), captured with the
    same typed handle as ["new"] so its striped retry census (incl.
    [desc.spill]/[desc.steal]) is reported; ["new-tagged"] is likewise
    the IBM-tag descriptor-freelist ablation, and ["new-ob"] the
    owner-biased private/public free-list mode (DESIGN.md §19, census
    incl. [pub.push]/[pub.claim]).
    [page_manager] (default [false] = off, the paper-verbatim path)
    routes large blocks and superblock carving through the [lib/pages]
    span reservoir (DESIGN.md §15). [desc_scan_threshold] (default 0 =
    the hazard-pointer module's own [2 * max_threads * k] amortised
    default) lowers the hazard pool's scan trigger so quick-scale runs
    exhibit the scan cost the reuse-in-place pool eliminates — only the
    [Hazard] descriptor pool reads it. Tracing is host-side only: the
    simulated run is bit-identical to an untraced one. *)

(** {2 The paper's §4.2.3 contention sites}

    Label groups from PR 1's CAS-site audit, derived from the label
    registries ([Mm_core.Labels.census_sites] then
    [Mm_pages.Pg_labels.census_sites]): one site may be CASed from
    several figure lines, hence several labels. *)

val core_sites : (string * string list) list
val core_retry_counts : Mm_obs.Agg.t -> (string * int) list

val trace_mmaps : Mm_obs.Trace_file.t -> int
(** Simulated mmap calls recorded in the trace (equals the store's
    [mmap_calls]; superblock-pool reuses emit no event). Used by the
    [bin/trace.exe report --max-mmap-per-1k] CI gate. *)

val trace_large_mmaps : Mm_obs.Trace_file.t -> int
(** Large-path mmap calls only (the ["store.mmap.large"] site — requests
    above the size-class threshold going straight to the OS). Used by
    the [bin/trace.exe report --max-large-mmap-per-1k] CI gate; the
    page manager (DESIGN.md §15) exists to collapse this number. *)

val trace_failed_cas : Mm_obs.Trace_file.t -> sites:string list -> int
(** Summed failed-CAS count of the named contention-census sites
    (names from [core_sites]; unknown names raise [Invalid_argument]).
    Used by the [bin/trace.exe report --max-failed-cas-per-1k] CI gate;
    the owner-biased free-list mode (DESIGN.md §19) exists to collapse
    the [anchor.pop]+[anchor.free] sum. *)

val trace_hp_scans : Mm_obs.Trace_file.t -> int
(** Hazard-pointer scans recorded in the trace. Used by the
    [bin/trace.exe report --max-hp-scan] CI gate; the reuse-in-place
    descriptor pool (DESIGN.md §17) exists to make this number zero. *)

(** {2 Named workloads (quick parameters) for the CLI} *)

val workloads :
  (string
  * (Mm_mem.Alloc_intf.instance -> threads:int -> Mm_workloads.Metrics.t))
  list

val find_workload :
  string ->
  (Mm_mem.Alloc_intf.instance -> threads:int -> Mm_workloads.Metrics.t)
  option

val report_lines : Mm_obs.Trace_file.t -> string list
(** The [bin/trace.exe report] rendering: run header, per-site retry
    table (retries per 1k allocator ops when op counts are available),
    per-label CAS table, transition census, scan/mmap counts. *)

val report_json : Mm_obs.Trace_file.t -> Mm_obs.Json.t
(** Machine-readable form of the same report (the CI artifact). *)
