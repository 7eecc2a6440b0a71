open Mm_runtime
open Mm_mem.Alloc_intf

type params = {
  slots_per_thread : int;
  min_size : int;
  max_size : int;
  rounds : int;
  seed : int;
}

let default =
  { slots_per_thread = 1024; min_size = 16; max_size = 80;
    rounds = 100_000; seed = 7 }

let quick = { default with slots_per_thread = 64; rounds = 2_000 }

let run instance ~threads p =
  let rt = instance.rt in
  let rand_size rng = Prng.int_in rng p.min_size p.max_size in
  (* Warmup (paper: one thread allocates and frees random blocks in
     random order), then hand each thread its slots. *)
  let warmup_rng = Prng.create p.seed in
  let warm =
    Array.init (4 * p.slots_per_thread) (fun _ ->
        instance.malloc (rand_size warmup_rng))
  in
  Prng.shuffle warmup_rng warm;
  Array.iter instance.free warm;
  let slots =
    Array.init threads (fun _ ->
        Array.init p.slots_per_thread (fun _ ->
            instance.malloc (rand_size warmup_rng)))
  in
  let body tid =
    let rng = Prng.create (p.seed + (1000 * (tid + 1))) in
    let mine = slots.(tid) in
    for _ = 1 to p.rounds do
      let slot = Prng.int rng p.slots_per_thread in
      instance.free mine.(slot);
      mine.(slot) <- instance.malloc (rand_size rng)
    done
  in
  let run = Rt.parallel_run rt (Array.make threads body) in
  (* Drain so invariants can be checked by callers. *)
  Array.iter (fun arr -> Array.iter instance.free arr) slots;
  Metrics.make ~workload:"larson" ~instance ~threads
    ~ops:(threads * p.rounds) ~run ()
