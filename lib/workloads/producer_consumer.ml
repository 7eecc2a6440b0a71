open Mm_runtime
open Mm_mem.Alloc_intf

type params = {
  tasks : int;
  work : int;
  db_size : int;
  set_min : int;
  set_max : int;
  queue_cap : int;
  seed : int;
}

let default =
  {
    tasks = 100_000;
    work = 750;
    db_size = 1_000_000;
    set_min = 10;
    set_max = 20;
    queue_cap = 1000;
    seed = 11;
  }

let quick = { default with tasks = 400; db_size = 10_000; queue_cap = 50 }

let with_work p work = { p with work }

(* A task in flight: the three blocks the producer allocated plus the
   index count. Indexes live in [idx_block]. *)
type task = { task_block : int; idx_block : int; node_block : int; k : int }

let cost_per_index = 20

(* One unit of the paper's [work] parameter corresponds to one iteration
   of Threadtest-like local work — several machine instructions. With 25
   cycles per unit, the producer/consumer cost ratio puts the knee of
   Fig. 8(f) (work=500) near 13 processors, as in the paper. *)
let work_scale = 25

(* The task queue: lib/lockfree's MS queue, in the copy compiled for
   the runtime the run uses (DESIGN.md §18). *)
module type QUEUE = sig
  type rt
  type 'a t

  val create : rt -> 'a t
  val enqueue : 'a t -> 'a -> unit
  val dequeue : 'a t -> 'a option
  val is_empty : 'a t -> bool
end

(* The whole run on one runtime: the task queue and the counters are
   [R]'s, so no operation dispatches on [Rt.t]. *)
module Run (R : Runtime_intf.S) (Msq : QUEUE with type rt := R.t) = struct
  let run instance ~threads p rt =
    let db =
      let rng = Prng.create p.seed in
      Array.init p.db_size (fun _ -> Prng.int rng 1024)
    in
    let queue : task Msq.t = Msq.create rt in
    let qlen = R.Atomic.make rt 0 in
    let producing_done = R.Atomic.make rt 0 in
    let consumed = R.Atomic.make rt 0 in
    let process task =
      (* Histograms over the database for the task's indexes. *)
      let acc = ref 0 in
      for w = 0 to task.k - 1 do
        let word = instance.read_word (task.idx_block + (8 * (w / 2))) in
        let idx = (if w land 1 = 0 then word land 0xFFFFFFFF else word lsr 32)
                  mod p.db_size in
        acc := !acc + db.(idx);
        R.work rt cost_per_index
      done;
      (* Task-local work proportional to the [work] parameter. *)
      R.work rt (p.work * work_scale);
      (* Consumer side: 1 malloc + 4 frees. *)
      let hist_block = instance.malloc 64 in
      instance.write_word hist_block !acc;
      instance.free hist_block;
      instance.free task.idx_block;
      instance.free task.task_block;
      instance.free task.node_block;
      R.Atomic.incr consumed
    in
    let try_consume () =
      match Msq.dequeue queue with
      | Some task ->
          ignore (R.Atomic.fetch_and_add qlen (-1));
          process task;
          true
      | None -> false
    in
    let producer _tid =
      let rng = Prng.create (p.seed + 1) in
      for _ = 1 to p.tasks do
        let k = Prng.int_in rng p.set_min p.set_max in
        (* Block of matching size recording the indexes (4 bytes each). *)
        let idx_block = instance.malloc (4 * k) in
        for w = 0 to ((k + 1) / 2) - 1 do
          let lo = Prng.int rng p.db_size in
          let hi = Prng.int rng p.db_size in
          instance.write_word
            (idx_block + (8 * w))
            (lo lor (hi lsl 32))
        done;
        let task_block = instance.malloc 32 in
        instance.write_word task_block k;
        let node_block = instance.malloc 16 in
        Msq.enqueue queue { task_block; idx_block; node_block; k };
        let len = R.Atomic.fetch_and_add qlen 1 + 1 in
        (* Help the consumers when the queue grows too long. *)
        if len > p.queue_cap then ignore (try_consume ())
      done;
      R.Atomic.set producing_done 1;
      (* Drain whatever remains (also covers threads = 1). *)
      while try_consume () do () done
    in
    (* An idle consumer backs off with Mm_lockfree.Backoff's schedule:
       1, 2, 4, ..., 256 relaxes, back to 1 after each task. *)
    let consumer _tid =
      let rec loop spins =
        if try_consume () then loop 1
        else if R.Atomic.get producing_done = 0 || not (Msq.is_empty queue)
        then begin
          for _ = 1 to spins do
            R.cpu_relax rt
          done;
          loop (min (2 * spins) 256)
        end
      in
      loop 1
    in
    let bodies =
      Array.init threads (fun i -> if i = 0 then producer else consumer)
    in
    let run = R.parallel_run rt bodies in
    assert (R.Atomic.get consumed = p.tasks);
    Metrics.make ~workload:"producer-consumer" ~instance ~threads ~ops:p.tasks
      ~run ()
end

module On_real = Run (Real_rt) (Mm_lockfree.Ms_queue)
module On_sim = Run (Sim_rt) (Mm_lockfree_sim.Ms_queue)

let run instance ~threads p =
  if threads < 1 then invalid_arg "Producer_consumer.run: threads >= 1";
  match Rt.sim instance.rt with
  | None -> On_real.run instance ~threads p ()
  | Some s -> On_sim.run instance ~threads p s
