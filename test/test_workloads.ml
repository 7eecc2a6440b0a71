(* Workload suite: op accounting, determinism, post-run consistency. *)

open Mm_runtime
module W = Mm_workloads
module I = Mm_mem.Alloc_intf
module Cfg = Mm_mem.Alloc_config
open Util

let sim_instance ?(cpus = 4) ?(seed = 1) name =
  let s = sim ~cpus ~seed ~max_cycles:50_000_000_000 () in
  instance name (Rt.simulated s)

let check_metrics m ~workload ~ops =
  Alcotest.(check string) "workload name" workload m.W.Metrics.workload;
  Alcotest.(check int) "ops" ops m.W.Metrics.ops;
  Alcotest.(check bool) "elapsed positive" true (m.W.Metrics.elapsed > 0.0);
  Alcotest.(check bool) "throughput positive" true
    (m.W.Metrics.throughput > 0.0);
  Alcotest.(check bool) "peak space positive" true
    (m.W.Metrics.space.Mm_mem.Space.mapped_peak > 0)

let linux_scalability () =
  let inst = sim_instance "new" in
  let m =
    W.Linux_scalability.run inst ~threads:3
      { W.Linux_scalability.pairs = 500; size = 8 }
  in
  check_metrics m ~workload:"linux-scalability" ~ops:1500;
  inst.I.check ()

let threadtest () =
  let inst = sim_instance "new" in
  let m =
    W.Threadtest.run inst ~threads:2
      { W.Threadtest.iterations = 3; blocks = 200; size = 8 }
  in
  check_metrics m ~workload:"threadtest" ~ops:1200;
  inst.I.check ()

let false_sharing_both () =
  List.iter
    (fun passive ->
      let inst = sim_instance "new" in
      let m =
        W.False_sharing.run inst ~threads:3
          { W.False_sharing.pairs = 100; size = 8; writes_per_byte = 20;
            passive }
      in
      check_metrics m
        ~workload:(if passive then "passive-false" else "active-false")
        ~ops:300;
      inst.I.check ())
    [ false; true ]

let larson () =
  let inst = sim_instance "new" in
  let m =
    W.Larson.run inst ~threads:3
      { W.Larson.slots_per_thread = 32; min_size = 16; max_size = 80;
        rounds = 300; seed = 3 }
  in
  check_metrics m ~workload:"larson" ~ops:900;
  (* Larson drains its slots afterwards: heap must be quiescent and
     consistent, and mallocs == frees. *)
  inst.I.check ();
  ignore (inst.I.name : string)

let producer_consumer_counts () =
  let inst = sim_instance ~cpus:8 "new" in
  let p = { W.Producer_consumer.quick with W.Producer_consumer.tasks = 150 } in
  let m = W.Producer_consumer.run inst ~threads:4 p in
  check_metrics m ~workload:"producer-consumer" ~ops:150;
  inst.I.check ()

let producer_consumer_single_thread () =
  let inst = sim_instance "new" in
  let p = { W.Producer_consumer.quick with W.Producer_consumer.tasks = 60 } in
  let m = W.Producer_consumer.run inst ~threads:1 p in
  check_metrics m ~workload:"producer-consumer" ~ops:60;
  inst.I.check ()

let pc_no_leaks () =
  (* Every task's four blocks are freed: for the lock-free allocator,
     mallocs == frees after the run. *)
  let s = sim ~cpus:4 ~max_cycles:50_000_000_000 () in
  let module As = Mm_core_sim.Lf_alloc in
  let t = As.create s Cfg.default in
  let inst = As.instance (Rt.simulated s) t in
  let p = { W.Producer_consumer.quick with W.Producer_consumer.tasks = 100 } in
  ignore (W.Producer_consumer.run inst ~threads:3 p);
  let m, f = As.op_counts t in
  Alcotest.(check int) "no leaked blocks" m f

let determinism () =
  let go () =
    let inst = sim_instance ~seed:9 "hoard" in
    let m =
      W.Larson.run inst ~threads:4
        { W.Larson.quick with W.Larson.rounds = 300 }
    in
    m.W.Metrics.elapsed
  in
  Alcotest.(check bool) "same seed, same virtual time" true (go () = go ())

let metrics_speedup () =
  let inst = sim_instance "new" in
  let m =
    W.Linux_scalability.run inst ~threads:1
      { W.Linux_scalability.pairs = 200; size = 8 }
  in
  Alcotest.(check bool) "self speedup = 1" true
    (abs_float (W.Metrics.speedup m ~baseline:m -. 1.0) < 1e-9)

let real_runtime_workloads () =
  (* Every workload also runs on real domains. *)
  let inst = instance "new" Rt.real in
  ignore
    (W.Linux_scalability.run inst ~threads:2
       { W.Linux_scalability.pairs = 1_000; size = 8 });
  ignore
    (W.Threadtest.run inst ~threads:2
       { W.Threadtest.iterations = 2; blocks = 200; size = 8 });
  ignore
    (W.False_sharing.run inst ~threads:2
       { W.False_sharing.pairs = 50; size = 8; writes_per_byte = 50;
         passive = false });
  ignore
    (W.Larson.run inst ~threads:2 { W.Larson.quick with W.Larson.rounds = 500 });
  ignore
    (W.Producer_consumer.run inst ~threads:2
       { W.Producer_consumer.quick with W.Producer_consumer.tasks = 100 });
  inst.I.check ()

let shbench_all_allocators () =
  List.iter
    (fun name ->
      let inst = sim_instance name in
      let m =
        W.Shbench.run inst ~threads:4
          { W.Shbench.quick with W.Shbench.rounds = 300 }
      in
      Alcotest.(check int) "ops" 1200 m.W.Metrics.ops;
      inst.I.check ())
    all_allocators

let all_allocators_complete () =
  List.iter
    (fun name ->
      let inst = sim_instance name in
      ignore
        (W.Larson.run inst ~threads:4
           { W.Larson.quick with W.Larson.rounds = 200 });
      inst.I.check ())
    all_allocators

let cases =
  [
    case "linux scalability" linux_scalability;
    case "threadtest" threadtest;
    case "false sharing (active+passive)" false_sharing_both;
    case "larson" larson;
    case "producer-consumer counts" producer_consumer_counts;
    case "producer-consumer single thread" producer_consumer_single_thread;
    case "producer-consumer no leaks" pc_no_leaks;
    case "sim determinism" determinism;
    case "metrics speedup" metrics_speedup;
    case "workloads on real runtime" real_runtime_workloads;
    case "all allocators complete larson" all_allocators_complete;
    case "shbench on all allocators" shbench_all_allocators;
  ]
