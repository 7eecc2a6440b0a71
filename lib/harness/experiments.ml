open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module W = Mm_workloads
module Metrics = W.Metrics
module Locks_real = Mm_baselines.Locks

type mode = Quick | Full

(* What an experiment renders; [run] adds the census to make an
   [outcome]. *)
type table = {
  id : string;
  title : string;
  runtime : string;  (* "real" | "simulated" — honest label for JSON *)
  expectation : string;
  lines : string list;
}

let allocators = Allocators.names

(* ------------------------------------------------------------------ *)
(* OS-traffic census: every experiment table ends with the lock-free
   allocator's syscall and superblock-pool traffic, summed over every
   "new" data point the experiment ran (simulated or real, whichever
   runtime the experiment uses) and normalized per 1k workload ops.
   This is the denominator the scripts/ci.sh mmap gate guards. *)

module Os = Mm_mem.Alloc_intf

let no_os =
  {
    Os.mmap_calls = 0;
    munmap_calls = 0;
    sb_allocs = 0;
    sb_frees = 0;
    sb_reuses = 0;
    large_mmaps = 0;
    large_munmaps = 0;
    pages_requested = 0;
    pages_granted = 0;
  }

(* The workload ops and the summed [os_stats] of the data points counted
   so far. *)
let census_ops = ref 0
let census_os = ref no_os

let note_census name (m : Metrics.t) =
  if name = "new" then begin
    let (a : Os.os_stats) = !census_os and b = m.Metrics.os in
    census_ops := !census_ops + m.Metrics.ops;
    census_os :=
      {
        mmap_calls = a.mmap_calls + b.mmap_calls;
        munmap_calls = a.munmap_calls + b.munmap_calls;
        sb_allocs = a.sb_allocs + b.sb_allocs;
        sb_frees = a.sb_frees + b.sb_frees;
        sb_reuses = a.sb_reuses + b.sb_reuses;
        large_mmaps = a.large_mmaps + b.large_mmaps;
        large_munmaps = a.large_munmaps + b.large_munmaps;
        pages_requested = a.pages_requested + b.pages_requested;
        pages_granted = a.pages_granted + b.pages_granted;
      }
  end

(* The JSON [os] object, keyed as in the BENCH_*.json records, which
   have no [sb_frees]. *)
let census_pairs ops (os : Os.os_stats) =
  [
    ("ops", ops);
    ("mmap_calls", os.mmap_calls);
    ("munmap_calls", os.munmap_calls);
    ("sb_allocs", os.sb_allocs);
    ("sb_reuses", os.sb_reuses);
    ("large_mmaps", os.large_mmaps);
    ("large_munmaps", os.large_munmaps);
    ("pages_requested", os.pages_requested);
    ("pages_granted", os.pages_granted);
  ]

let per1k n ops =
  if ops = 0 then "-"
  else Printf.sprintf "%.2f" (1000.0 *. float_of_int n /. float_of_int ops)

(* Internal fragmentation of buddy-served requests: the share of granted
   pages the power-of-two rounding wasted. "-" when nothing went through
   the buddy (page manager off, or no large/new-superblock traffic). *)
let frag_pct (os : Os.os_stats) =
  if os.pages_granted = 0 then "-"
  else
    Printf.sprintf "%.1f%%"
      (100.0
      *. float_of_int (os.pages_granted - os.pages_requested)
      /. float_of_int os.pages_granted)

let census_line ~runtime ops (os : Os.os_stats) =
  if ops = 0 then
    Printf.sprintf
      "os census (new, %s runtime): no data points were counted in this \
       experiment"
      runtime
  else
    Printf.sprintf
      "os census (new, %s runtime, per 1k ops over %d): mmap %s, munmap %s, \
       sb_allocs %s, sb_reuses %s, large_mmap %s, large_munmap %s, buddy \
       frag %s"
      runtime ops (per1k os.mmap_calls ops) (per1k os.munmap_calls ops)
      (per1k os.sb_allocs ops) (per1k os.sb_reuses ops)
      (per1k os.large_mmaps ops) (per1k os.large_munmaps ops) (frag_pct os)

(* One simulated data point: fresh machine, fresh heap. *)
let sim_point ?(cpus = Traced.sim_cpus) ?(cfg = Cfg.default) ~seed name
    workload ~threads =
  let sim = Traced.make_sim ~cpus ~seed () in
  let rt = Rt.simulated sim in
  let inst = Allocators.make name rt cfg in
  let m = workload inst ~threads in
  note_census name m;
  m

(* Real-runtime heaps get the paper's multiprocessor shape (16 heaps)
   unless an experiment overrides it. *)
let real_cfg = Cfg.make ~nheaps:16 ()

(* Wall-clock timing on a shared host is noisy; take the best of a few
   fresh runs (the paper's own methodology of reporting representative
   contention-free numbers). *)
let real_point ?(cfg = real_cfg) ?(repeats = 3) name workload ~threads =
  let best = ref None in
  for _ = 1 to repeats do
    let inst = Allocators.make name Rt.real cfg in
    let m = workload inst ~threads in
    note_census name m;
    match !best with
    | Some b when b.Metrics.throughput >= m.Metrics.throughput -> ()
    | _ -> best := Some m
  done;
  Option.get !best

let threads_list = function
  | Quick -> [ 1; 2; 4; 8; 16 ]
  | Full -> List.init 16 (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Workload selections per mode. *)

let linux_params = function
  | Quick -> { W.Linux_scalability.quick with pairs = 2_000 }
  | Full -> { W.Linux_scalability.quick with pairs = 20_000 }

let threadtest_params = function
  | Quick -> Traced.threadtest_quick
  | Full -> { W.Threadtest.quick with iterations = 10; blocks = 2_000 }

let active_false_params = function
  | Quick -> { W.False_sharing.quick_active with pairs = 200 }
  | Full -> { W.False_sharing.quick_active with pairs = 2_000 }

let passive_false_params m =
  { (active_false_params m) with W.False_sharing.passive = true }

let larson_params = function
  | Quick -> { W.Larson.quick with rounds = 2_000 }
  | Full -> { W.Larson.quick with slots_per_thread = 256; rounds = 10_000 }

let pc_params ~work = function
  | Quick -> Traced.pc_quick ~work
  | Full -> { (W.Producer_consumer.with_work W.Producer_consumer.quick work)
              with W.Producer_consumer.tasks = 3_000 }

(* Real-runtime (latency) parameter sets: big enough to time reliably. *)
let real_linux = function
  | Quick -> { W.Linux_scalability.quick with pairs = 300_000 }
  | Full -> { W.Linux_scalability.quick with pairs = 3_000_000 }

let real_threadtest = function
  | Quick -> { W.Threadtest.quick with iterations = 30; blocks = 10_000 }
  | Full -> { W.Threadtest.quick with iterations = 100; blocks = 30_000 }

let real_larson = function
  | Quick -> { W.Larson.default with rounds = 300_000 }
  | Full -> { W.Larson.default with rounds = 3_000_000 }

(* ------------------------------------------------------------------ *)
(* Scalability figures: speedup over contention-free (t=1) libc. *)

(* A scalability sweep measures parallel speedup, which real domains
   show only when each of the sweep's threads gets a CPU of its own:
   with fewer CPUs than the sweep's largest thread count, the top of
   the curve measures time-slicing, not the allocator. Such hosts run
   the sweep on the deterministic 16-CPU simulated machine instead.
   Either way the runtime is labelled honestly in the title and the
   [runtime] field of the JSON payload. *)
let figure_runtime ~cpus ~threads =
  if cpus >= List.fold_left Int.max 0 threads then `Real else `Simulated

let figure ~id ~title ~expectation ~workload mode seed =
  let threads = threads_list mode in
  let real_cpus = Real_rt.num_cpus () in
  let point, runtime, cpus =
    match figure_runtime ~cpus:real_cpus ~threads with
    | `Real -> ((fun name -> real_point name workload), "real", real_cpus)
    | `Simulated ->
        ((fun name -> sim_point ~seed name workload), "simulated",
         Traced.sim_cpus)
  in
  let base = point "libc" ~threads:1 in
  let rows =
    List.map
      (fun t ->
        ( string_of_int t,
          List.map
            (fun name ->
              let m = point name ~threads:t in
              Metrics.speedup m ~baseline:base)
            allocators ))
      threads
  in
  {
    id;
    title = Printf.sprintf "%s (%s, %d CPUs)" title runtime cpus;
    runtime;
    expectation;
    lines =
      Render.series ~col_title:"allocator" ~cols:allocators ~row_title:"t"
        ~rows;
  }

(* ------------------------------------------------------------------ *)
(* Table 1 and §4.2.1 latency. *)

let table1 mode seed =
  ignore seed;
  let workloads =
    [
      ("linux-scalability",
       fun inst ~threads -> W.Linux_scalability.run inst ~threads (real_linux mode));
      ("threadtest",
       fun inst ~threads -> W.Threadtest.run inst ~threads (real_threadtest mode));
      ("larson",
       fun inst ~threads -> W.Larson.run inst ~threads (real_larson mode));
    ]
  in
  let rows =
    List.map
      (fun (wname, wl) ->
        let base = real_point "libc" wl ~threads:1 in
        wname
        :: List.filter_map
             (fun name ->
               if name = "libc" then None
               else
                 let m = real_point name wl ~threads:1 in
                 Some (Render.fmt_speedup (Metrics.speedup m ~baseline:base)))
             allocators)
      workloads
  in
  {
    id = "table1";
    runtime = "real";
    title = "Table 1: contention-free speedup over libc malloc (real runtime)";
    expectation =
      "Paper (POWER3/POWER4): New 2.18-2.95, Hoard 1.11-2.37, Ptmalloc \
       1.83-2.67; New highest on every benchmark.";
    lines =
      Render.table
        ~header:("benchmark" :: List.filter (fun n -> n <> "libc") allocators)
        ~rows;
  }

let latency mode seed =
  ignore seed;
  let pairs = match mode with Quick -> 200_000 | Full -> 2_000_000 in
  let pair_ns name =
    let inst = Allocators.make name Rt.real real_cfg in
    let m =
      W.Linux_scalability.run inst ~threads:1
        { W.Linux_scalability.pairs; size = 8 }
    in
    note_census name m;
    1e9 /. m.Metrics.throughput
  in
  let lock_pair_ns kind =
    let lock = Locks_real.create () kind in
    let t0 = Real_rt.now () in
    for _ = 1 to pairs do
      Locks_real.acquire lock;
      Locks_real.release lock
    done;
    (Real_rt.now () -. t0) *. 1e9 /. float_of_int pairs
  in
  let alloc_rows =
    List.map (fun n -> [ "malloc+free (" ^ n ^ ")"; Render.fmt_ns (pair_ns n) ])
      allocators
  in
  let lock_rows =
    [
      [ "lock acq+rel (tas-backoff)"; Render.fmt_ns (lock_pair_ns Cfg.Tas_backoff) ];
      [ "lock acq+rel (ticket)"; Render.fmt_ns (lock_pair_ns Cfg.Ticket) ];
      [ "lock acq+rel (pthread-like)"; Render.fmt_ns (lock_pair_ns Cfg.Pthread_like) ];
    ]
  in
  {
    id = "latency";
    runtime = "real";
    title = "§4.2.1: contention-free pair latency (real runtime, 1 thread)";
    expectation =
      "Paper (POWER4): New pair 282ns vs 165ns for a bare lightweight \
       lock pair — under 2x a minimal critical section; New lowest among \
       allocators.";
    lines = Render.table ~header:[ "operation"; "latency" ]
        ~rows:(alloc_rows @ lock_rows);
  }

(* ------------------------------------------------------------------ *)
(* §4.2.5 space efficiency. *)

let space mode seed =
  let t = 16 in
  (* Space effects need enough live blocks per thread to matter; these
     are larger than the throughput-figure parameter sets. *)
  let scale = match mode with Quick -> 1 | Full -> 4 in
  let workloads =
    [
      ("threadtest",
       fun inst ~threads ->
         W.Threadtest.run inst ~threads
           { W.Threadtest.quick with iterations = 3; blocks = 4_000 * scale });
      ("larson",
       fun inst ~threads ->
         W.Larson.run inst ~threads
           { W.Larson.quick with slots_per_thread = 512 * scale;
             rounds = 4_000 * scale });
      ("producer-consumer",
       fun inst ~threads ->
         W.Producer_consumer.run inst ~threads
           { (pc_params ~work:750 mode) with
             W.Producer_consumer.tasks = 1_500 * scale;
             queue_cap = 1_000 });
    ]
  in
  let rows =
    List.map
      (fun (wname, wl) ->
        let peaks =
          List.map
            (fun name ->
              let m = sim_point ~seed name wl ~threads:t in
              (name, m.Metrics.space.Mm_mem.Space.mapped_peak))
            allocators
        in
        let peak n = List.assoc n peaks in
        wname
        :: (List.map (fun n -> Render.fmt_bytes (peak n)) allocators
           @ [ Printf.sprintf "%.2f"
                 (float_of_int (peak "ptmalloc") /. float_of_int (peak "new"));
             ])
      )
      workloads
  in
  {
    id = "space";
    runtime = "simulated";
    title = "§4.2.5: maximum space mapped from the OS (simulated, 16 threads)";
    expectation =
      "Paper: New <= Hoard < Ptmalloc everywhere; Ptmalloc/New ratio 1.16 \
       (Threadtest) to 3.83 (Larson) on 16 processors.";
    lines =
      Render.table
        ~header:(("benchmark" :: allocators) @ [ "ptmalloc/new" ])
        ~rows;
  }

(* ------------------------------------------------------------------ *)
(* §4.2.4 uniprocessor optimization. *)

let uniproc mode seed =
  ignore seed;
  let params = real_linux mode in
  let run_with nheaps =
    let cfg = Cfg.make ~nheaps () in
    let m =
      real_point ~cfg "new"
        (fun inst ~threads -> W.Linux_scalability.run inst ~threads params)
        ~threads:1
    in
    m.Metrics.throughput
  in
  let multi = run_with 16 in
  let single = run_with 1 in
  {
    id = "uniproc";
    runtime = "real";
    title = "§4.2.4: uniprocessor optimization (single heap, real runtime)";
    expectation =
      "Paper: using one heap (no thread-id lookup across heaps) gained \
       ~15% contention-free speedup on Linux-scalability.";
    lines =
      Render.table ~header:[ "config"; "throughput"; "vs 16 heaps" ]
        ~rows:
          [
            [ "16 heaps"; Render.fmt_throughput multi; "1.00" ];
            [ "1 heap (uniproc)"; Render.fmt_throughput single;
              Render.fmt_speedup (single /. multi) ];
          ];
  }

(* ------------------------------------------------------------------ *)
(* Ablations. *)

let ablation_rows ~seed ~threads ~configs ~workloads =
  List.concat_map
    (fun (wname, wl) ->
      List.map
        (fun (cname, cfg) ->
          let m = sim_point ~cfg ~seed "new" wl ~threads in
          [ wname; cname; Render.fmt_throughput m.Metrics.throughput ])
        configs)
    workloads

let ablation_partial mode seed =
  let workloads =
    [
      ("larson",
       fun inst ~threads -> W.Larson.run inst ~threads (larson_params mode));
      ("producer-consumer",
       fun inst ~threads ->
         W.Producer_consumer.run inst ~threads (pc_params ~work:750 mode));
    ]
  in
  let configs =
    [
      ("fifo (paper)", Cfg.make ~partial_policy:Cfg.Fifo ());
      ("lifo", Cfg.make ~partial_policy:Cfg.Lifo ());
    ]
  in
  {
    id = "ablation-partial";
    runtime = "simulated";
    title = "§3.2.6 ablation: FIFO vs LIFO size-class partial lists";
    expectation =
      "Paper prefers FIFO to reduce contention and false sharing; both \
       must be correct, FIFO no slower.";
    lines =
      Render.table ~header:[ "benchmark"; "policy"; "throughput" ]
        ~rows:(ablation_rows ~seed ~threads:8 ~configs ~workloads);
  }

let ablation_desc mode seed =
  let workloads =
    [
      ("threadtest",
       fun inst ~threads -> W.Threadtest.run inst ~threads (threadtest_params mode));
      ("larson",
       fun inst ~threads -> W.Larson.run inst ~threads (larson_params mode));
    ]
  in
  let configs =
    [
      ("hazard pointers (paper)", Cfg.make ~desc_pool:Cfg.Hazard ());
      ("IBM tag", Cfg.make ~desc_pool:Cfg.Tagged ());
    ]
  in
  {
    id = "ablation-desc";
    runtime = "simulated";
    title = "Fig. 7 ablation: descriptor freelist ABA prevention";
    expectation =
      "Both schemes are correct; descriptor operations are rare, so \
       throughput is comparable.";
    lines =
      Render.table ~header:[ "benchmark"; "scheme"; "throughput" ]
        ~rows:(ablation_rows ~seed ~threads:8 ~configs ~workloads);
  }

(* DESIGN.md §17: what does descriptor reclamation cost, and what does
   reuse-in-place eliminate? Same one-heap 16-thread shape as
   contention-sites, traced, one row per reclamation variant. The
   hazard scans and the freelist CAS windows come from the obs layer. *)
let ablation_reclaim mode seed =
  let wl inst ~threads =
    W.Threadtest.run inst ~threads (threadtest_params mode)
  in
  (* The shared-freelist hand-off windows: Fig. 7 pop/refill/push for
     the hazard pool, plus the tagged stack's CASes, which the tagged
     pool crosses on every hand-off and the reuse pool only when a
     thread's front is full or empty. The descriptor pool is the only
     Tis instance, so the tis.* labels are unambiguous here. *)
  let freelist_windows =
    Mm_core.Labels.[ desc_alloc; desc_refill; desc_push ]
    @ Mm_lockfree.Lf_labels.[ tis_push_cas; tis_pop_cas ]
  in
  let rows =
    List.map
      (fun (vname, alloc_name) ->
        (* Eager scan threshold so the hazard baseline exhibits its scan
           cost at quick scale (the default amortises over 2*max_threads
           retirements and never fires here); only the hazard pool reads
           it, so the other rows are unaffected. *)
        let c =
          Traced.capture ~nheaps:1 ~allocator:alloc_name ~name:"threadtest"
            ~threads:16 ~seed ~desc_scan_threshold:4 wl
        in
        note_census "new" c.Traced.metric;
        let agg = Option.get c.Traced.metric.Metrics.obs in
        let m = c.Traced.trace.Mm_obs.Trace_file.meta in
        let ops = m.Mm_obs.Trace_file.mallocs + m.Mm_obs.Trace_file.frees in
        let hp = Traced.trace_hp_scans c.Traced.trace in
        let freelist_cas =
          Mm_obs.Agg.retries agg ~labels:freelist_windows
        in
        [
          vname;
          Render.fmt_throughput c.Traced.metric.Metrics.throughput;
          string_of_int hp;
          per1k hp ops;
          string_of_int freelist_cas;
        ])
      [
        ("hazard pointers (paper)", "new");
        ("IBM tag", "new-tagged");
        ("reuse-in-place", "new-reuse");
      ]
  in
  {
    id = "ablation-reclaim";
    runtime = "simulated";
    title =
      "DESIGN.md §17 ablation: descriptor reclamation (hazard scans vs \
       IBM-tag freelist vs reuse-in-place), traced threadtest, ONE \
       shared heap, 16 threads";
    expectation =
      "Retiring variants pay a reclamation tax: hazard pointers scan the \
       retirement list (hp.scan events) and both retiring variants CAS \
       through the shared freelist on every descriptor hand-off. \
       Reuse-in-place records ZERO hp.scans and no freelist CAS \
       failures — a thread reaches the shared stack only when its front \
       is full or empty — at the cost of never returning descriptor \
       slots.";
    lines =
      Render.table
        ~header:
          [
            "variant"; "throughput"; "hp.scan"; "scan/1k"; "freelist CAS fail";
          ]
        ~rows;
  }

(* DESIGN.md §19: what does anchor contention cost, and what does the
   owner-biased private/public split eliminate? Same one-heap 16-thread
   shape as contention-sites, traced, one row per free-list mode and
   workload. The anchor column sums the two hot per-superblock sites
   (anchor.pop + anchor.free); the pub column sums the owner-biased
   mode's replacement windows (pub.push + pub.claim). *)
let ablation_ownerbias mode seed =
  let workloads =
    [
      ("threadtest x16",
       fun inst ~threads ->
         W.Threadtest.run inst ~threads (threadtest_params mode));
      ("larson x16",
       fun inst ~threads -> W.Larson.run inst ~threads (larson_params mode));
    ]
  in
  let rows =
    List.concat_map
      (fun (wname, wl) ->
        List.map
          (fun (vname, alloc_name) ->
            let c =
              Traced.capture ~nheaps:1 ~allocator:alloc_name ~name:wname
                ~threads:16 ~seed wl
            in
            note_census alloc_name c.Traced.metric;
            let m = c.Traced.trace.Mm_obs.Trace_file.meta in
            let ops =
              m.Mm_obs.Trace_file.mallocs + m.Mm_obs.Trace_file.frees
            in
            let retry site =
              Option.value
                (List.assoc_opt site c.Traced.retry_counts)
                ~default:0
            in
            let anchor = retry "anchor.pop" + retry "anchor.free" in
            let pub = retry "pub.push" + retry "pub.claim" in
            [
              wname; vname;
              Render.fmt_throughput c.Traced.metric.Metrics.throughput;
              string_of_int anchor; per1k anchor ops;
              string_of_int pub; per1k pub ops;
            ])
          [
            ("anchor (paper)", "new");
            ("owner-biased", "new-ob");
            ("anchor + cache", "new-cached");
          ])
      workloads
  in
  {
    id = "ablation-ownerbias";
    runtime = "simulated";
    title =
      "DESIGN.md §19 ablation: anchor vs owner-biased free lists, and \
       the block cache over anchor lists (traced, ONE shared heap, 16 \
       threads)";
    expectation =
      "Owner-local frees become plain private-list writes, remote frees \
       into owned superblocks one pub.push each and frees into \
       handed-off ones one anchor CAS each, so the combined \
       anchor.pop+anchor.free failed-CAS rate collapses (>=10x) while \
       throughput holds or improves; the residual retries stay far below \
       the anchor traffic they replace. The block cache (new-cached) \
       keeps the anchor lists but absorbs most of their traffic.";
    lines =
      Render.table
        ~header:
          [
            "benchmark"; "free lists"; "throughput"; "anchor CAS fail";
            "anchor/1k"; "pub CAS fail"; "pub/1k";
          ]
        ~rows;
  }

let ablation_credits mode seed =
  let workloads =
    [
      ("threadtest",
       fun inst ~threads -> W.Threadtest.run inst ~threads (threadtest_params mode));
    ]
  in
  let configs =
    List.map
      (fun c -> (Printf.sprintf "MAXCREDITS=%d" c, Cfg.make ~maxcredits:c ()))
      [ 1; 8; 64 ]
  in
  {
    id = "ablation-credits";
    runtime = "simulated";
    title = "§3.2.1 ablation: credits batch size";
    expectation =
      "Few credits force a reservation round-trip through the anchor per \
       batch of allocations: throughput grows with MAXCREDITS.";
    lines =
      Render.table ~header:[ "benchmark"; "config"; "throughput" ]
        ~rows:(ablation_rows ~seed ~threads:8 ~configs ~workloads);
  }

let ablation_locks mode seed =
  let wl inst ~threads =
    W.Linux_scalability.run inst ~threads (linux_params mode)
  in
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun (lname, kind) ->
            let cfg = Cfg.make ~lock_kind:kind () in
            let one = sim_point ~cfg ~seed name wl ~threads:1 in
            let many = sim_point ~cfg ~seed name wl ~threads:8 in
            [
              name; lname;
              Render.fmt_throughput one.Metrics.throughput;
              Render.fmt_throughput many.Metrics.throughput;
            ])
          [ ("pthread-like", Cfg.Pthread_like); ("lightweight", Cfg.Tas_backoff) ])
      [ "hoard"; "ptmalloc" ]
  in
  {
    id = "ablation-locks";
    runtime = "simulated";
    title = "§4 ablation: baseline lock implementation";
    expectation =
      "Paper: replacing pthread mutexes with lightweight locks cut \
       Ptmalloc's contention-free latency by >50% and improved its \
       scalability; Hoard gained similarly.";
    lines =
      Render.table
        ~header:[ "allocator"; "lock"; "thr t=1"; "thr t=8" ]
        ~rows;
  }

let ablation_hyper mode seed =
  let wl inst ~threads =
    W.Threadtest.run inst ~threads (threadtest_params mode)
  in
  let rows =
    List.map
      (fun (cname, cfg) ->
        let m = sim_point ~cfg ~seed "new" wl ~threads:8 in
        [
          cname;
          Render.fmt_throughput m.Metrics.throughput;
          string_of_int m.Metrics.os.Mm_mem.Store.mmap_calls;
          string_of_int m.Metrics.os.Mm_mem.Store.sb_allocs;
        ])
      [
        ("plain superblocks", Cfg.make ~hyperblocks:false ());
        ("1MB hyperblocks", Cfg.make ~hyperblocks:true ());
      ]
  in
  {
    id = "ablation-hyper";
    runtime = "simulated";
    title = "§3.2.5 ablation: hyperblock batching of superblock mmaps";
    expectation =
      "Batching superblock allocation into 1MB hyperblocks divides the \
       mmap call count by the batch factor with no throughput loss.";
    lines =
      Render.table
        ~header:[ "config"; "throughput"; "mmap calls"; "sb allocs" ]
        ~rows;
  }

let large_alloc_params = function
  | Quick -> W.Large_alloc.quick
  | Full -> { W.Large_alloc.default with W.Large_alloc.rounds = 20_000 }

(* Mixed small/large churn across every allocator: the workload the
   page-manager ablation below optimizes, measured first on the stock
   configurations. *)
let large_alloc mode seed =
  let wl inst ~threads =
    W.Large_alloc.run inst ~threads (large_alloc_params mode)
  in
  let rows =
    List.map
      (fun name ->
        let m = sim_point ~seed name wl ~threads:8 in
        let os = m.Metrics.os in
        [
          name;
          Render.fmt_throughput m.Metrics.throughput;
          per1k os.Mm_mem.Store.mmap_calls m.Metrics.ops;
          per1k os.Mm_mem.Store.munmap_calls m.Metrics.ops;
          Render.fmt_bytes m.Metrics.space.Mm_mem.Space.mapped_peak;
        ])
      allocators
  in
  {
    id = "large-alloc";
    runtime = "simulated";
    title =
      "Extension workload: mixed sizes straddling the large-allocation \
       threshold (simulated, 8 threads)";
    expectation =
      "Not in the paper: every allocator serves above-threshold blocks \
       with one mmap/munmap per block (Fig. 4 lines 2-3), so OS traffic, \
       not heap contention, dominates — the motivation for the \
       DESIGN.md §15 page manager.";
    lines =
      Render.table
        ~header:[ "allocator"; "throughput"; "mmap/1k"; "munmap/1k";
                  "mapped peak" ]
        ~rows;
  }

let ablation_pages mode seed =
  let workloads =
    [
      ("large-alloc x8",
       fun inst ~threads ->
         W.Large_alloc.run inst ~threads (large_alloc_params mode));
      ("threadtest x8",
       fun inst ~threads ->
         W.Threadtest.run inst ~threads (threadtest_params mode));
    ]
  in
  let configs =
    [
      ("pages off (paper)", Cfg.make ());
      ("pages on, 64p spans", Cfg.make ~page_manager:true ());
      ("pages on, 256p spans", Cfg.make ~page_manager:true ~span_pages:256 ());
    ]
  in
  let rows =
    List.concat_map
      (fun (wname, wl) ->
        List.map
          (fun (cname, cfg) ->
            let m = sim_point ~cfg ~seed "new" wl ~threads:8 in
            let os = m.Metrics.os in
            let frag = frag_pct os in
            [
              wname; cname;
              Render.fmt_throughput m.Metrics.throughput;
              per1k os.Mm_mem.Store.large_mmaps m.Metrics.ops;
              per1k os.Mm_mem.Store.large_munmaps m.Metrics.ops;
              per1k
                (os.Mm_mem.Store.mmap_calls + os.Mm_mem.Store.munmap_calls)
                m.Metrics.ops;
              frag;
              Render.fmt_bytes m.Metrics.space.Mm_mem.Space.mapped_peak;
            ])
          configs)
      workloads
  in
  {
    id = "ablation-pages";
    runtime = "simulated";
    title =
      "DESIGN.md §15 ablation: span reservoir + lock-free buddy vs \
       one-mmap-per-request large blocks and superblocks";
    expectation =
      "The paper direct-maps everything above the size-class threshold, \
       so large-alloc pays ~one mmap+munmap per large block. Routing \
       those blocks (and superblock carving) through reserved spans \
       collapses large-path syscalls to the span-reservation residue — \
       well over 5x fewer large mmaps — at the cost of power-of-two \
       internal fragmentation inside spans and span-granular mapped \
       peak; threadtest shows the superblock-carving path is not \
       slower.";
    lines =
      Render.table
        ~header:
          [
            "benchmark"; "config"; "throughput"; "lg mmap/1k";
            "lg munmap/1k"; "syscalls/1k"; "frag"; "mapped peak";
          ]
        ~rows;
  }

(* ------------------------------------------------------------------ *)
(* Preemption tolerance: oversubscribe the simulated CPUs. *)

let preempt mode seed =
  let cpus = 4 in
  let wl inst ~threads =
    W.Threadtest.run inst ~threads (threadtest_params mode)
  in
  let rows =
    List.map
      (fun name ->
        let fit = sim_point ~cpus ~seed name wl ~threads:cpus in
        let over = sim_point ~cpus ~seed name wl ~threads:(2 * cpus) in
        (* Per-op efficiency: ops per virtual second; oversubscription
           doubles the work, so perfect preemption tolerance keeps
           throughput flat. *)
        [
          name;
          Render.fmt_throughput fit.Metrics.throughput;
          Render.fmt_throughput over.Metrics.throughput;
          Render.fmt_speedup
            (over.Metrics.throughput /. fit.Metrics.throughput);
        ])
      allocators
  in
  {
    id = "preempt";
    runtime = "simulated";
    title =
      "§1 preemption-tolerance: threads = 2x CPUs (simulated, 4 CPUs, \
       preemptive quanta)";
    expectation =
      "Lock-based allocators suffer when a lock holder is preempted \
       (spinners burn their quanta); the lock-free allocator's \
       throughput is unaffected by oversubscription.";
    lines =
      Render.table
        ~header:[ "allocator"; "thr t=cpus"; "thr t=2xcpus"; "ratio" ]
        ~rows;
  }

(* ------------------------------------------------------------------ *)
(* Extension workloads beyond the paper's six: realloc churn (shbench
   style) and replay of a generated cross-thread allocation trace. *)

let extra_workloads mode seed =
  let shbench_params =
    match mode with
    | Quick -> { W.Shbench.quick with W.Shbench.rounds = 1_500 }
    | Full -> { W.Shbench.quick with W.Shbench.rounds = 15_000 }
  in
  let trace =
    W.Trace.generate ~seed ~threads:8
      ~ops:(match mode with Quick -> 4_000 | Full -> 40_000)
      ()
  in
  let rows =
    List.map
      (fun name ->
        let sh =
          sim_point ~seed name
            (fun inst ~threads -> W.Shbench.run inst ~threads shbench_params)
            ~threads:8
        in
        let tr =
          sim_point ~seed name
            (fun inst ~threads:_ -> W.Trace.run inst trace)
            ~threads:8
        in
        [
          name;
          Render.fmt_throughput sh.Metrics.throughput;
          Render.fmt_throughput tr.Metrics.throughput;
          Render.fmt_bytes tr.Metrics.space.Mm_mem.Space.mapped_peak;
        ])
      allocators
  in
  {
    id = "extra-workloads";
    runtime = "simulated";
    title =
      "Extension workloads: shbench-style realloc churn and cross-thread \
       trace replay (simulated, 8 threads)";
    expectation =
      "Not in the paper; the lock-free allocator's advantage persists on \
       realloc-heavy and trace-driven mixes, with bounded space.";
    lines =
      Render.table
        ~header:[ "allocator"; "shbench thr"; "trace thr"; "trace peak" ]
        ~rows;
  }

(* ------------------------------------------------------------------ *)
(* Tail latency under contention: the robustness story behind the
   scalability curves. Lock-based allocators queue whole operations
   behind a held lock (and behind preempted holders), fattening the
   tail; lock-free operations interleave at CAS granularity. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let tail_latency mode seed =
  let threads = 16 in
  let pairs = match mode with Quick -> 400 | Full -> 4_000 in
  let rows =
    List.map
      (fun name ->
        let sim = Traced.make_sim ~seed () in
        let rt = Rt.simulated sim in
        let inst = Allocators.make name rt Cfg.default in
        let samples = Array.make (threads * pairs) 0 in
        let body tid =
          for i = 0 to pairs - 1 do
            let t0 = Sim.now_cycles () in
            let a = inst.Mm_mem.Alloc_intf.malloc 8 in
            inst.Mm_mem.Alloc_intf.free a;
            samples.((tid * pairs) + i) <- Sim.now_cycles () - t0
          done
        in
        ignore (Sim.run sim (Array.make threads (fun i -> body i)));
        Array.sort compare samples;
        [
          name;
          string_of_int (percentile samples 0.50);
          string_of_int (percentile samples 0.90);
          string_of_int (percentile samples 0.99);
          string_of_int samples.(Array.length samples - 1);
        ])
      allocators
  in
  {
    id = "tail-latency";
    runtime = "simulated";
    title =
      "Robustness: malloc+free pair latency distribution under full \
       contention (simulated cycles, 16 threads)";
    expectation =
      "Lock-free operations interleave at CAS granularity, so the p99/max \
       tail stays near the median; lock-based allocators serialize whole \
       operations and queue behind preempted holders, fattening the tail \
       by orders of magnitude.";
    lines =
      Render.table
        ~header:[ "allocator"; "p50"; "p90"; "p99"; "max" ]
        ~rows;
  }

(* Where does interference land inside the lock-free allocator? *)
let contention_sites mode seed =
  let workloads =
    [
      ("threadtest x16",
       fun inst ~threads -> W.Threadtest.run inst ~threads (threadtest_params mode));
      ("producer-consumer x16",
       fun inst ~threads ->
         W.Producer_consumer.run inst ~threads (pc_params ~work:500 mode));
    ]
  in
  let rows =
    (* Counters come from the observability layer (lib/obs), the same
       computation `bin/trace.exe report` performs — not from a bespoke
       census. Tracing is host-side only, so these numbers are identical
       to an untraced run's striped retry counters (tested in
       test_obs). *)
    List.concat_map
      (fun (wname, wl) ->
        let c =
          Traced.capture ~nheaps:1 ~name:wname ~threads:16 ~seed wl
        in
        note_census "new" c.Traced.metric;
        let agg = Option.get c.Traced.metric.Metrics.obs in
        let m = c.Traced.trace.Mm_obs.Trace_file.meta in
        let ops = m.Mm_obs.Trace_file.mallocs + m.Mm_obs.Trace_file.frees in
        List.map
          (fun (site, n) ->
            [
              wname; site;
              string_of_int n;
              Printf.sprintf "%.2f" (1000.0 *. float_of_int n /. float_of_int ops);
            ])
          (Traced.core_retry_counts agg))
      workloads
  in
  {
    id = "contention-sites";
    runtime = "simulated";
    title =
      "§4.2.3: failed-CAS counts per contention site (lock-free \
       allocator, ONE shared heap, 16 threads)";
    expectation =
      "Interference concentrates on the shared Active word and the \
       anchors of hot superblocks; even under maximal contention the \
       retry rate stays a small fraction of operations, because \
       read-modify-write segments are short and successful operations \
       overlap in time.";
    lines =
      Render.table
        ~header:[ "workload"; "site"; "failed CAS"; "per 1k ops" ]
        ~rows;
  }

(* ------------------------------------------------------------------ *)
(* Availability: kill threads mid-operation. *)

let kill mode seed =
  ignore mode;
  let cpus = 4 and threads = 4 in
  let pairs = 2_000 in
  let try_alloc name ~kill_label =
    let killed = ref 0 in
    let on_label ~tid l =
      if l = kill_label && tid = 1 && !killed = 0 then begin
        incr killed;
        Sim.Kill
      end
      else Sim.Continue
    in
    let sim =
      Sim.create ~cpus ~seed ~max_cycles:80_000_000 ~on_label ()
    in
    let rt = Rt.simulated sim in
    (* Kill injection is a controlled-schedule facility: only runtimes
       that advertise the capability may run this experiment. *)
    if not (Rt.controllable rt) then "SKIPPED: runtime not controllable"
    else
    (* One shared heap: every thread depends on the same structures, so a
       dead lock holder blocks all lock-based survivors. *)
    let inst = Allocators.make name rt (Cfg.make ~nheaps:1 ()) in
    let body _ =
      for _ = 1 to pairs do
        let a = inst.Mm_mem.Alloc_intf.malloc 8 in
        inst.Mm_mem.Alloc_intf.free a
      done
    in
    match Sim.run sim (Array.make threads (fun i -> body i)) with
    | r ->
        Printf.sprintf "survivors completed (%d killed, %d ops done)"
          r.Sim.counters.Sim.killed
          ((threads - 1) * pairs)
    | exception Sim.Progress_timeout _ -> "LIVELOCK: survivors never finish"
    | exception Sim.Deadlock _ -> "DEADLOCK"
  in
  let rows =
    [
      [ "new"; Mm_core.Labels.ma_reserved; try_alloc "new" ~kill_label:Mm_core.Labels.ma_reserved ];
      [ "new"; Mm_core.Labels.free_cas; try_alloc "new" ~kill_label:Mm_core.Labels.free_cas ];
      [ "libc"; Mm_baselines.Locks.holder_label;
        try_alloc "libc" ~kill_label:Mm_baselines.Locks.holder_label ];
      [ "hoard"; Mm_baselines.Locks.holder_label;
        try_alloc "hoard" ~kill_label:Mm_baselines.Locks.holder_label ];
    ]
  in
  {
    id = "kill";
    runtime = "simulated";
    title = "§1 availability: kill a thread mid-malloc/free (simulated)";
    expectation =
      "Paper: a lock-free allocator guarantees progress even if threads \
       are killed arbitrarily; lock-based allocators deadlock when a \
       lock holder dies.";
    lines = Render.table ~header:[ "allocator"; "killed at"; "outcome" ] ~rows;
  }

(* ------------------------------------------------------------------ *)
(* Catalogue. *)

let fig id letter ~title ~expectation ~workload =
  (id, fun mode seed -> figure ~id ~title:(Printf.sprintf "Fig. 8(%s): %s" letter title) ~expectation ~workload:(workload mode) mode seed)

let experiments : (string * (mode -> int -> table)) list =
  [
    ("table1", table1);
    ("latency", latency);
    fig "fig8a" "a"
      ~title:"Linux scalability — speedup over contention-free libc"
      ~expectation:
        "Paper: New, Ptmalloc, Hoard scale ~linearly (slopes ordered by \
         their latency, New steepest); libc drops to 0.4 at t=2 and keeps \
         declining (331x gap to New at 16)."
      ~workload:(fun mode inst ~threads ->
        W.Linux_scalability.run inst ~threads (linux_params mode));
    fig "fig8b" "b" ~title:"Threadtest"
      ~expectation:
        "Paper: New and Hoard scale in proportion to their contention-free \
         latencies; Ptmalloc scales at a lower rate under high contention; \
         libc flat."
      ~workload:(fun mode inst ~threads ->
        W.Threadtest.run inst ~threads (threadtest_params mode));
    fig "fig8c" "c" ~title:"Active false sharing"
      ~expectation:
        "Paper: New and Hoard avoid inducing false sharing and scale; \
         Ptmalloc and libc degrade."
      ~workload:(fun mode inst ~threads ->
        W.False_sharing.run inst ~threads (active_false_params mode));
    fig "fig8d" "d" ~title:"Passive false sharing"
      ~expectation:
        "Paper: same ordering as Active-false; blocks handed out by one \
         thread keep hurting Ptmalloc and libc after being freed."
      ~workload:(fun mode inst ~threads ->
        W.False_sharing.run inst ~threads (passive_false_params mode));
    fig "fig8e" "e" ~title:"Larson"
      ~expectation:
        "Paper: New and Hoard scale; Ptmalloc does not (threads hop \
         between arenas, 22 arenas for 16 threads); New highest."
      ~workload:(fun mode inst ~threads ->
        W.Larson.run inst ~threads (larson_params mode));
    fig "fig8f" "f" ~title:"Producer-consumer, work=500"
      ~expectation:
        "Paper: New scales up to the application's knee (~13); Hoard \
         suffers contention on the producer's heap; Ptmalloc in between."
      ~workload:(fun mode inst ~threads ->
        W.Producer_consumer.run inst ~threads (pc_params ~work:500 mode));
    fig "fig8g" "g" ~title:"Producer-consumer, work=750"
      ~expectation:"Paper: New scales ~perfectly; gap to Hoard persists."
      ~workload:(fun mode inst ~threads ->
        W.Producer_consumer.run inst ~threads (pc_params ~work:750 mode));
    fig "fig8h" "h" ~title:"Producer-consumer, work=1000"
      ~expectation:
        "Paper: the benchmark is less allocator-bound; all allocators \
         closer, New still >= others."
      ~workload:(fun mode inst ~threads ->
        W.Producer_consumer.run inst ~threads (pc_params ~work:1000 mode));
    ("space", space);
    ("uniproc", uniproc);
    ("ablation-partial", ablation_partial);
    ("ablation-desc", ablation_desc);
    ("ablation-reclaim", ablation_reclaim);
    ("ablation-credits", ablation_credits);
    ("ablation-locks", ablation_locks);
    ("ablation-hyper", ablation_hyper);
    ("ablation-ownerbias", ablation_ownerbias);
    ("large-alloc", large_alloc);
    ("ablation-pages", ablation_pages);
    ("preempt", preempt);
    ("extra-workloads", extra_workloads);
    ("tail-latency", tail_latency);
    ("contention-sites", contention_sites);
    ("kill", kill);
  ]

type outcome = {
  id : string;
  title : string;
  runtime : string;
  expectation : string;
  lines : string list;
  os : (string * int) list;
}

let ids = List.map fst experiments

(* Reset the census, run the experiment, append the census line to its
   table and keep the raw counters beside it. *)
let with_census f mode seed =
  census_ops := 0;
  census_os := no_os;
  let (t : table) = f mode seed in
  {
    id = t.id;
    title = t.title;
    runtime = t.runtime;
    expectation = t.expectation;
    lines =
      t.lines @ [ census_line ~runtime:t.runtime !census_ops !census_os ];
    os = census_pairs !census_ops !census_os;
  }

let run id ~mode ~seed =
  match List.assoc_opt id experiments with
  | Some f -> with_census f mode seed
  | None -> invalid_arg ("Experiments.run: unknown experiment " ^ id)

let to_json ~mode ~seed outcomes =
  let module J = Mm_obs.Json in
  J.Obj
    [
      ("format", J.Str "mm-bench/2");
      ("mode", J.Str (match mode with Quick -> "quick" | Full -> "full"));
      ("seed", J.Int seed);
      ( "experiments",
        J.Arr
          (List.map
             (fun o ->
               J.Obj
                 [
                   ("id", J.Str o.id);
                   ("title", J.Str o.title);
                   ("runtime", J.Str o.runtime);
                   ("expectation", J.Str o.expectation);
                   ("lines", J.Arr (List.map (fun l -> J.Str l) o.lines));
                   ( "os",
                     J.Obj (List.map (fun (k, v) -> (k, J.Int v)) o.os) );
                 ])
             outcomes) );
    ]

let print_outcome fmt o =
  Format.fprintf fmt "== %s: %s [%s runtime]@." o.id o.title o.runtime;
  Format.fprintf fmt "   paper: %s@." o.expectation;
  List.iter (fun l -> Format.fprintf fmt "   %s@." l) o.lines;
  Format.fprintf fmt "@."
