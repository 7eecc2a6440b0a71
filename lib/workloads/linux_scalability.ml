open Mm_runtime
open Mm_mem.Alloc_intf

type params = { pairs : int; size : int }

let default = { pairs = 10_000_000; size = 8 }
let quick = { pairs = 10_000; size = 8 }

let run instance ~threads p =
  let rt = instance.rt in
  let body _tid =
    for _ = 1 to p.pairs do
      let a = instance.malloc p.size in
      instance.free a
    done
  in
  let run = Rt.parallel_run rt (Array.make threads body) in
  Metrics.make ~workload:"linux-scalability" ~instance ~threads
    ~ops:(threads * p.pairs) ~run ()
