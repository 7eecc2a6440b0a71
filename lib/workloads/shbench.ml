open Mm_runtime
open Mm_mem.Alloc_intf

type params = {
  slots : int;
  rounds : int;
  min_size : int;
  max_size : int;
  seed : int;
}

let default =
  { slots = 256; rounds = 100_000; min_size = 8; max_size = 1_000; seed = 17 }

let quick = { default with slots = 32; rounds = 2_000 }

let run instance ~threads p =
  let rt = instance.rt in
  let body tid =
    let rng = Prng.create (p.seed + (tid * 101)) in
    let slots = Array.make p.slots 0 in
    for _ = 1 to p.rounds do
      let i = Prng.int rng p.slots in
      let choice = Prng.int rng 3 in
      if slots.(i) = 0 then
        slots.(i) <- instance.malloc (Prng.int_in rng p.min_size p.max_size)
      else if choice = 0 then begin
        instance.free slots.(i);
        slots.(i) <- 0
      end
      else
        slots.(i) <-
          Mm_mem.Alloc_ops.realloc instance slots.(i)
            (Prng.int_in rng p.min_size p.max_size)
    done;
    Array.iter (fun a -> if a <> 0 then instance.free a) slots
  in
  let run = Rt.parallel_run rt (Array.init threads (fun i _ -> body i)) in
  Metrics.make ~workload:"shbench" ~instance ~threads
    ~ops:(threads * p.rounds) ~run ()
