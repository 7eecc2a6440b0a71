open Mm_runtime
open Mm_mem.Alloc_intf

type params = {
  pairs : int;
  size : int;
  writes_per_byte : int;
  passive : bool;
}

let quick_active =
  { pairs = 300; size = 8; writes_per_byte = 100; passive = false }

let run instance ~threads p =
  let rt = instance.rt in
  (* Passive variant: thread 0 allocates everyone's first block up front;
     each thread frees its handed block before proceeding. *)
  let handed =
    if p.passive then
      Array.init threads (fun _ -> instance.malloc p.size)
    else [||]
  in
  let body tid =
    if p.passive then instance.free handed.(tid);
    for _ = 1 to p.pairs do
      let a = instance.malloc p.size in
      instance.write_payload_round a ~len:p.size
        ~times:p.writes_per_byte;
      instance.free a
    done
  in
  let run = Rt.parallel_run rt (Array.make threads body) in
  Metrics.make
    ~workload:(if p.passive then "passive-false" else "active-false")
    ~instance ~threads
    ~ops:(threads * p.pairs)
    ~run ()
