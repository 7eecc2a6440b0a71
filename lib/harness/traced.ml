open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module W = Mm_workloads
module Lf = Mm_core.Lf_alloc.Make (Sim_rt)
module Bc = Mm_core.Block_cache.Make (Sim_rt)
module L = Mm_core.Labels
module Pg = Mm_pages.Pg_labels
module Obs_agg = Mm_obs.Agg
module Trace_file = Mm_obs.Trace_file
module Json = Mm_obs.Json

(* Same machine shape and cycle budget as Experiments (which shares
   these workload parameters via the definitions below). *)
let sim_cpus = 16
let sim_budget = 100_000_000_000

(* Quick-mode parameter sets shared with Experiments, so a trace report
   and the EXPERIMENTS.md contention-sites census describe the same
   runs. *)
let threadtest_quick = { W.Threadtest.quick with iterations = 4; blocks = 500 }

let pc_quick ~work =
  {
    (W.Producer_consumer.with_work W.Producer_consumer.quick work) with
    W.Producer_consumer.tasks = 300;
  }

type capture = {
  trace : Trace_file.t;
  metric : W.Metrics.t;
  retry_counts : (string * int) list;
}

let capture ?(cpus = sim_cpus) ?nheaps ?(capacity = 1 lsl 16)
    ?(allocator = "new") ?(page_manager = false)
    ?(desc_scan_threshold = 0) ~name ~threads ~seed wl =
  let nheaps = Option.value nheaps ~default:cpus in
  let sim = Sim.create ~cpus ~seed ~max_cycles:sim_budget () in
  let rt = Rt.simulated sim in
  let cfg = Cfg.make ~nheaps ~page_manager ~desc_scan_threshold () in
  (* Keep a typed handle on the lock-free allocator so the capture can
     report its op counts and its independent striped retry census. For
     "new-cached" the retry census comes from the wrapped backend while
     the op counts are the frontend's (what the application issued), so
     per-1k-op retry rates show the cache absorbing CAS traffic. *)
  let lf, bc, inst =
    match allocator with
    | "new" | "new-reuse" | "new-tagged" | "new-ob" ->
        let t = Lf.create sim (Allocators.override allocator cfg) in
        (Some t, None, Lf.instance rt t)
    | "new-cached" ->
        let t = Bc.create sim (Allocators.override allocator cfg) in
        (Some (Bc.backend t), Some t, Bc.instance rt t)
    | _ -> (None, None, Allocators.make allocator rt cfg)
  in
  let metric, tracer =
    Mm_obs.Tracer.with_tracing ~capacity (fun () -> wl inst ~threads)
  in
  let events = Mm_obs.Tracer.events tracer in
  let dropped = Mm_obs.Tracer.dropped tracer in
  let agg = Obs_agg.of_events ~dropped events in
  let mallocs, frees =
    match (bc, lf) with
    | Some t, _ -> Bc.op_counts t
    | None, Some t -> Lf.op_counts t
    | None, None -> (0, 0)
  in
  let meta =
    {
      Trace_file.workload = name;
      allocator;
      threads;
      seed;
      nheaps;
      cpus;
      ops = metric.W.Metrics.ops;
      mallocs;
      frees;
      capacity;
    }
  in
  {
    trace = { Trace_file.meta; dropped; events };
    metric = { metric with W.Metrics.obs = Some agg };
    retry_counts =
      (match lf with Some t -> Lf.retry_counts t | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* §4.2.3 contention sites: the label groups of PR 1's CAS-site audit,
   taken straight from the label registries so the trace census, the
   allocator's striped [Lf_alloc.retry_counts] and the EXPERIMENTS.md
   tables can never list different rows. A site may be CASed from
   several figure lines (the Active word from MallocFromActive's
   reserve and MallocFromPartial's install; the anchor pop from both
   malloc paths), hence label {e groups}. *)

let core_sites = L.census_sites @ Pg.census_sites

let core_retry_counts agg =
  List.map (fun (site, labels) -> (site, Obs_agg.retries agg ~labels)) core_sites

(* Simulated mmap calls recorded in a trace (one Mmap event per real
   mapping; superblock-pool reuses emit none), so the CI
   mmap gate works on recorded traces as well as fresh runs. *)
let trace_mmaps (tf : Trace_file.t) =
  let agg = Trace_file.agg tf in
  List.fold_left
    (fun n (s : Obs_agg.site) -> n + s.Obs_agg.mmaps)
    0 agg.Obs_agg.sites

(* Large-path mappings only (site "store.mmap.large" — Fig. 4 lines 2-3
   going straight to the OS). The page manager exists to make this
   number collapse; the CI gate bounds it per 1k allocator ops. *)
let trace_large_mmaps (tf : Trace_file.t) =
  let agg = Trace_file.agg tf in
  match Obs_agg.site agg "store.mmap.large" with
  | Some s -> s.Obs_agg.mmaps
  | None -> 0

(* Summed failed-CAS count of named contention-census sites. Unknown
   site names are a caller error (the CLI validates against
   [core_sites] before calling), so raise rather than return 0 — a
   typo'd gate that silently measures nothing is worse than no gate. *)
let trace_failed_cas (tf : Trace_file.t) ~sites =
  let counts = core_retry_counts (Trace_file.agg tf) in
  List.fold_left
    (fun n site ->
      match List.assoc_opt site counts with
      | Some c -> n + c
      | None -> invalid_arg ("trace_failed_cas: unknown census site " ^ site))
    0 sites

(* Hazard-pointer scans recorded in a trace. The reuse-in-place
   descriptor pool (DESIGN.md §17) exists to make this number zero; the
   CI gate asserts exactly that on the traced threadtest. *)
let trace_hp_scans (tf : Trace_file.t) =
  let agg = Trace_file.agg tf in
  List.fold_left
    (fun n (s : Obs_agg.site) -> n + s.Obs_agg.hp_scans)
    0 agg.Obs_agg.sites

(* ------------------------------------------------------------------ *)
(* Named workloads (quick parameters) for bin/trace.exe. *)

let workloads =
  [
    ("threadtest", fun inst ~threads -> W.Threadtest.run inst ~threads threadtest_quick);
    ( "producer-consumer",
      fun inst ~threads -> W.Producer_consumer.run inst ~threads (pc_quick ~work:500) );
    ( "linux-scalability",
      fun inst ~threads ->
        W.Linux_scalability.run inst ~threads
          { W.Linux_scalability.quick with pairs = 2_000 } );
    ( "larson",
      fun inst ~threads ->
        W.Larson.run inst ~threads { W.Larson.quick with rounds = 2_000 } );
    ( "active-false",
      fun inst ~threads ->
        W.False_sharing.run inst ~threads
          { W.False_sharing.quick_active with pairs = 200 } );
    ( "passive-false",
      fun inst ~threads ->
        W.False_sharing.run inst ~threads
          { W.False_sharing.quick_active with pairs = 200; passive = true } );
    ("shbench", fun inst ~threads -> W.Shbench.run inst ~threads W.Shbench.quick);
    ( "large-alloc",
      fun inst ~threads -> W.Large_alloc.run inst ~threads W.Large_alloc.quick );
  ]

let find_workload name = List.assoc_opt name workloads

(* ------------------------------------------------------------------ *)
(* Report rendering. *)

let per1k n d =
  if d = 0 then "-"
  else Printf.sprintf "%.2f" (1000.0 *. float_of_int n /. float_of_int d)

let report_lines (tf : Trace_file.t) =
  let m = tf.Trace_file.meta in
  let agg = Trace_file.agg tf in
  let aops = m.mallocs + m.frees in
  let header =
    [
      Printf.sprintf
        "trace: %s x%d, allocator=%s, sim seed %d, %d cpus, %d heap%s"
        m.workload m.threads m.allocator m.seed m.cpus m.nheaps
        (if m.nheaps = 1 then "" else "s");
      Printf.sprintf
        "events: %d recorded, %d dropped (ring capacity %d/thread)"
        agg.Obs_agg.total tf.dropped m.capacity;
      Printf.sprintf
        "ops: %d workload units; allocator: %d mallocs + %d frees" m.ops
        m.mallocs m.frees;
    ]
  in
  let sites_tbl =
    if
      m.allocator <> "new" && m.allocator <> "new-reuse"
      && m.allocator <> "new-tagged" && m.allocator <> "new-cached"
      && m.allocator <> "new-ob"
    then []
    else
      "" :: "contention sites (failed CAS = one retry):"
      :: Render.table
           ~header:[ "site"; "failed CAS"; "per 1k ops" ]
           ~rows:
             (List.map
                (fun (site, n) -> [ site; string_of_int n; per1k n aops ])
                (core_retry_counts agg))
  in
  let label_rows =
    List.filter_map
      (fun (s : Obs_agg.site) ->
        if s.Obs_agg.cas_ok + s.Obs_agg.cas_fail = 0 then None
        else
          Some
            [
              s.Obs_agg.label;
              string_of_int s.Obs_agg.cas_ok;
              string_of_int s.Obs_agg.cas_fail;
              per1k s.Obs_agg.cas_fail aops;
            ])
      agg.Obs_agg.sites
  in
  let labels_tbl =
    if label_rows = [] then []
    else
      "" :: "per-label CAS census:"
      :: Render.table
           ~header:[ "label"; "CAS ok"; "CAS fail"; "fail per 1k ops" ]
           ~rows:label_rows
  in
  let tr_rows =
    List.filter_map
      (fun (s : Obs_agg.site) ->
        if s.Obs_agg.transitions = 0 then None
        else Some [ s.Obs_agg.label; string_of_int s.Obs_agg.transitions ])
      agg.Obs_agg.sites
  in
  let tr_tbl =
    if tr_rows = [] then []
    else
      "" :: "superblock transition census:"
      :: Render.table ~header:[ "transition"; "count" ] ~rows:tr_rows
  in
  let total kind =
    List.fold_left
      (fun n (s : Obs_agg.site) ->
        n
        +
        match kind with
        | `Hp -> s.Obs_agg.hp_scans
        | `Mmap -> s.Obs_agg.mmaps)
      0 agg.Obs_agg.sites
  in
  header @ sites_tbl @ labels_tbl @ tr_tbl
  @ [
      "";
      Printf.sprintf "hp scans: %d; mmap calls: %d" (total `Hp) (total `Mmap);
    ]

let report_json (tf : Trace_file.t) =
  let m = tf.Trace_file.meta in
  let agg = Trace_file.agg tf in
  let aops = m.mallocs + m.frees in
  let rate n =
    if aops = 0 then Json.Null
    else Json.Float (1000.0 *. float_of_int n /. float_of_int aops)
  in
  Json.Obj
    [
      ("workload", Json.Str m.workload);
      ("allocator", Json.Str m.allocator);
      ("threads", Json.Int m.threads);
      ("seed", Json.Int m.seed);
      ("nheaps", Json.Int m.nheaps);
      ("cpus", Json.Int m.cpus);
      ("ops", Json.Int m.ops);
      ("mallocs", Json.Int m.mallocs);
      ("frees", Json.Int m.frees);
      ("events", Json.Int agg.Obs_agg.total);
      ("dropped", Json.Int tf.dropped);
      ( "contention_sites",
        Json.Arr
          (List.map
             (fun (site, n) ->
               Json.Obj
                 [
                   ("site", Json.Str site);
                   ("failed_cas", Json.Int n);
                   ("per_1k_ops", rate n);
                 ])
             (core_retry_counts agg)) );
      ( "labels",
        Json.Arr
          (List.map
             (fun (s : Obs_agg.site) ->
               Json.Obj
                 [
                   ("label", Json.Str s.Obs_agg.label);
                   ("cas_ok", Json.Int s.Obs_agg.cas_ok);
                   ("cas_fail", Json.Int s.Obs_agg.cas_fail);
                   ("transitions", Json.Int s.Obs_agg.transitions);
                   ("hp_scans", Json.Int s.Obs_agg.hp_scans);
                   ("mmaps", Json.Int s.Obs_agg.mmaps);
                 ])
             agg.Obs_agg.sites) );
    ]
