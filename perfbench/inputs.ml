(* Seeded input generation. Everything a worker domain consumes during a
   run is generated here from the seed, before any heap exists, so the
   allocator under test only ever receives these arrays. *)

type workload = Threadtest | Larson | Remote_free

let workloads =
  [ ("threadtest", Threadtest); ("larson", Larson); ("remote-free", Remote_free) ]

let workload_of_string s = List.assoc_opt s workloads

(* Worker domains per run: one per CPU of a 2-CPU host, one processor
   heap each. *)
let domains = 2

(* Workload shapes; BENCHMARK.json records why each was chosen. *)
let threadtest_batch = 10_000
let threadtest_size = 8
let larson_slots = 4096
let larson_min_size = 16
let larson_max_size = 80
let larson_script = 1 lsl 16
let remote_batch = 1000
let remote_size = 32

type per_domain = {
  key : int;
      (** stamp key: the block a domain malloc'd as its [seq]-th call
          carries the payload word [key lxor seq] until it is freed *)
  sizes : int array;
      (** threadtest / remote-free: request size of each block of a
          batch; larson: initial size of each slot *)
  slots : int array;  (** larson: the slot replaced by step [j] *)
  step_sizes : int array;  (** larson: the size malloc'd by step [j] *)
}

type t = { workload : workload; per_domain : per_domain array }

let generate workload ~seed =
  let rng = Random.State.make [| 0x6d6d_616c; seed |] in
  let per_domain =
    Array.init domains (fun _ ->
        let key = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
        match workload with
        | Threadtest ->
            {
              key;
              sizes = Array.make threadtest_batch threadtest_size;
              slots = [||];
              step_sizes = [||];
            }
        | Remote_free ->
            {
              key;
              sizes = Array.make remote_batch remote_size;
              slots = [||];
              step_sizes = [||];
            }
        | Larson ->
            let size () =
              larson_min_size
              + Random.State.int rng (larson_max_size - larson_min_size + 1)
            in
            let sizes = Array.init larson_slots (fun _ -> size ()) in
            let slots = Array.make larson_script 0 in
            let step_sizes = Array.make larson_script 0 in
            for j = 0 to larson_script - 1 do
              slots.(j) <- Random.State.int rng larson_slots;
              step_sizes.(j) <- size ()
            done;
            { key; sizes; slots; step_sizes })
  in
  { workload; per_domain }

(* Digest of the serialized inputs: equal digests mean byte-identical
   inputs. *)
let digest t = Digest.to_hex (Digest.string (Marshal.to_string t []))
