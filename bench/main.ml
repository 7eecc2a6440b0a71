(* Benchmark harness.

   Two parts:
   1. Bechamel microbenchmarks on the real runtime — the contention-free
      per-operation latencies behind the paper's Table 1 and §4.2.1 (one
      Test.make per measured row).
   2. The experiment catalogue (lib/harness): every table and figure of
      the paper's evaluation plus the DESIGN.md ablations, printed as
      paper-style tables with the paper's expectation alongside.

   MM_BENCH_FULL=1 selects the full parameter sets (slower);
   MM_BENCH_SEED overrides the simulation seed.
   MM_BENCH_JSON=path (or --json [path], default BENCH.json) also writes
   every bechamel estimate and experiment table as machine-readable JSON
   so bench trajectories are diffable across commits (BENCH_0.json is
   the seed of that trajectory; scripts/ci.sh archives the current
   run). *)

open Bechamel
open Toolkit
module Cfg = Mm_mem.Alloc_config
module I = Mm_mem.Alloc_intf
module Json = Mm_obs.Json

let real_cfg = Cfg.make ~nheaps:16 ()

let pair_test name =
  let inst = Mm_harness.Allocators.make name Mm_runtime.Rt.real real_cfg in
  Test.make
    ~name:(Printf.sprintf "malloc+free/%s" name)
    (Staged.stage (fun () -> I.instance_free inst (I.instance_malloc inst 8)))

module Locks_real = Mm_baselines.Locks.Make (Mm_runtime.Real_rt)

let lock_test (label, kind) =
  let lock = Locks_real.create () kind in
  Test.make
    ~name:(Printf.sprintf "lock-pair/%s" label)
    (Staged.stage (fun () ->
         Locks_real.acquire lock;
         Locks_real.release lock))

let larson_test name =
  (* One Larson replacement step: free a random slot, allocate into it. *)
  let inst = Mm_harness.Allocators.make name Mm_runtime.Rt.real real_cfg in
  let rng = Mm_runtime.Prng.create 99 in
  let slots =
    Array.init 1024 (fun _ ->
        I.instance_malloc inst (Mm_runtime.Prng.int_in rng 16 80))
  in
  Test.make
    ~name:(Printf.sprintf "larson-step/%s" name)
    (Staged.stage (fun () ->
         let s = Mm_runtime.Prng.int rng 1024 in
         I.instance_free inst slots.(s);
         slots.(s) <- I.instance_malloc inst (Mm_runtime.Prng.int_in rng 16 80)))

let run_bechamel () =
  let tests =
    Test.make_grouped ~name:"latency"
      (List.map pair_test Mm_harness.Allocators.names
      @ List.map larson_test Mm_harness.Allocators.names
      @ List.map lock_test
          [
            ("tas-backoff", Cfg.Tas_backoff);
            ("ticket", Cfg.Ticket);
            ("pthread-like", Cfg.Pthread_like);
          ])
  in
  (* stabilize:false — GC stabilization between samples perturbs these
     sub-microsecond measurements far more than the GC itself does. *)
  let cfg_b =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimates =
    let raw = Benchmark.all cfg_b [ Instance.monotonic_clock ] tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Some e
          | _ -> None
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  print_endline
    "== Bechamel: contention-free latency (real runtime, 1 thread) ==";
  List.iter print_endline
    (Mm_harness.Render.table ~header:[ "benchmark"; "ns/op" ]
       ~rows:
         (List.map
            (fun (name, est) ->
              [
                name;
                (match est with
                | Some e -> Printf.sprintf "%.1f ns" e
                | None -> "n/a");
              ])
            estimates));
  print_newline ();
  estimates

(* ------------------------------------------------------------------ *)
(* Contended throughput (simulated, deterministic): 16 threads on ONE
   shared processor heap — the shape where per-superblock anchor
   contention dominates — for every comparison allocator plus the
   owner-biased ablation ("new-ob", DESIGN.md §19), under an
   owner-local workload (threadtest) and a remote-free one (larson). *)

let contended_names =
  match Mm_harness.Allocators.names with
  | "new" :: rest -> "new" :: "new-ob" :: rest
  | l -> l @ [ "new-ob" ]

let run_contended ~seed =
  let cfg = Cfg.make ~nheaps:1 () in
  let workloads =
    [
      ( "threadtest x16",
        fun inst ~threads ->
          Mm_workloads.Threadtest.run inst ~threads
            Mm_harness.Traced.threadtest_quick );
      ( "larson x16",
        fun inst ~threads ->
          Mm_workloads.Larson.run inst ~threads
            { Mm_workloads.Larson.quick with Mm_workloads.Larson.rounds = 2_000 }
      );
    ]
  in
  let rows =
    List.concat_map
      (fun (wname, wl) ->
        List.map
          (fun name ->
            let sim =
              Mm_runtime.Sim.create ~cpus:16 ~seed
                ~max_cycles:100_000_000_000 ()
            in
            let rt = Mm_runtime.Rt.simulated sim in
            let inst = Mm_harness.Allocators.make name rt cfg in
            let m = wl inst ~threads:16 in
            (wname, name, m.Mm_workloads.Metrics.throughput))
          contended_names)
      workloads
  in
  print_endline
    "== Contended throughput (simulated, 16 threads, ONE shared heap) ==";
  List.iter print_endline
    (Mm_harness.Render.table
       ~header:[ "workload"; "allocator"; "throughput" ]
       ~rows:
         (List.map
            (fun (w, a, thr) ->
              [ w; a; Mm_harness.Render.fmt_throughput thr ])
            rows));
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Machine-readable results. *)

let json_path () =
  match Sys.getenv_opt "MM_BENCH_JSON" with
  | Some p -> Some p
  | None ->
      let rec find = function
        | "--json" :: p :: _ when String.length p > 0 && p.[0] <> '-' ->
            Some p
        | [ "--json" ] | "--json" :: _ -> Some "BENCH.json"
        | _ :: rest -> find rest
        | [] -> None
      in
      find (Array.to_list Sys.argv)

let bench_json ~full ~seed estimates contended outcomes =
  Json.Obj
    [
      ("format", Json.Str "mm-bench/1");
      ("mode", Json.Str (if full then "full" else "quick"));
      ("seed", Json.Int seed);
      ( "bechamel",
        Json.Arr
          (List.map
             (fun (name, est) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ( "ns_per_op",
                     match est with
                     | Some e -> Json.Float e
                     | None -> Json.Null );
                 ])
             estimates) );
      ( "contended",
        Json.Arr
          (List.map
             (fun (w, a, thr) ->
               Json.Obj
                 [
                   ("workload", Json.Str w);
                   ("allocator", Json.Str a);
                   ("throughput", Json.Float thr);
                 ])
             contended) );
      ( "experiments",
        Json.Arr
          (List.map
             (fun (o : Mm_harness.Experiments.outcome) ->
               Json.Obj
                 [
                   ("id", Json.Str o.Mm_harness.Experiments.id);
                   ("title", Json.Str o.Mm_harness.Experiments.title);
                   ("runtime", Json.Str o.Mm_harness.Experiments.runtime);
                   ( "expectation",
                     Json.Str o.Mm_harness.Experiments.expectation );
                   ( "lines",
                     Json.Arr
                       (List.map
                          (fun l -> Json.Str l)
                          o.Mm_harness.Experiments.lines) );
                   (* Raw OS-traffic counters for the lock-free
                      allocator (the per-1k census line's inputs), so
                      mmap/munmap trajectories diff cleanly. *)
                   ( "os",
                     Json.Obj
                       (List.map
                          (fun (k, v) -> (k, Json.Int v))
                          (Mm_harness.Experiments.os_census
                             o.Mm_harness.Experiments.id)) );
                 ])
             outcomes) );
    ]

let () =
  let full = Sys.getenv_opt "MM_BENCH_FULL" = Some "1" in
  let seed =
    match Sys.getenv_opt "MM_BENCH_SEED" with
    | Some s -> (try int_of_string s with _ -> 1)
    | None -> 1
  in
  let mode =
    if full then Mm_harness.Experiments.Full else Mm_harness.Experiments.Quick
  in
  Printf.printf "mmalloc bench harness (%s mode, seed %d)\n\n%!"
    (if full then "full" else "quick")
    seed;
  let estimates = run_bechamel () in
  let contended = run_contended ~seed in
  let outcomes =
    List.map
      (fun (id, _) ->
        let o = Mm_harness.Experiments.run id ~mode ~seed in
        Format.printf "%a%!" Mm_harness.Experiments.print_outcome o;
        o)
      Mm_harness.Experiments.catalogue
  in
  match json_path () with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string (bench_json ~full ~seed estimates contended outcomes));
      output_char oc '\n';
      close_out oc;
      Printf.printf "results written to %s\n%!" path
