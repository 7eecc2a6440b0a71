open Mm_runtime
open Mm_mem.Alloc_intf

type params = { iterations : int; blocks : int; size : int }

let default = { iterations = 100; blocks = 100_000; size = 8 }
let quick = { iterations = 10; blocks = 500; size = 8 }

let run instance ~threads p =
  let rt = instance.rt in
  let body _tid =
    let addrs = Array.make p.blocks 0 in
    for _ = 1 to p.iterations do
      for i = 0 to p.blocks - 1 do
        addrs.(i) <- instance.malloc p.size
      done;
      for i = 0 to p.blocks - 1 do
        instance.free addrs.(i)
      done
    done
  in
  let run = Rt.parallel_run rt (Array.make threads body) in
  Metrics.make ~workload:"threadtest" ~instance ~threads
    ~ops:(threads * p.iterations * p.blocks)
    ~run ()
