open Mm_runtime

type t = {
  workload : string;
  allocator : string;
  runtime : string;
  threads : int;
  ops : int;
  elapsed : float;
  throughput : float;
  space : Mm_mem.Space.snapshot;
  os : Mm_mem.Store.os_stats;
  sim : Sim.counters option;
  obs : Mm_obs.Agg.t option;
      (* per-site event counters, when the run was traced *)
}

let make ?obs ~workload ~instance ~threads ~ops ~run () =
  let open Mm_mem.Alloc_intf in
  let elapsed = run.Rt.elapsed in
  {
    workload;
    allocator = instance.name;
    runtime = Rt.name instance.rt;
    threads;
    ops;
    elapsed;
    throughput = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
    space = instance.space ();
    os = instance.os_stats ();
    sim = (match run.Rt.sim_result with
          | Some r -> Some r.Sim.counters
          | None -> None);
    obs;
  }

let pp fmt t =
  Format.fprintf fmt
    "%-16s %-9s %-4s t=%-2d ops=%-9d elapsed=%.6fs thr=%.3e ops/s peak=%dKB"
    t.workload t.allocator t.runtime t.threads t.ops t.elapsed t.throughput
    (t.space.Mm_mem.Space.mapped_peak / 1024)

let speedup t ~baseline =
  if baseline.throughput > 0.0 then t.throughput /. baseline.throughput
  else 0.0
