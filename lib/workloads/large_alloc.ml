open Mm_runtime
open Mm_mem.Alloc_intf

type params = {
  slots : int;
  rounds : int;
  small_size : int;
  max_size : int;
  large_frac : int;
  seed : int;
}

let default =
  {
    slots = 64;
    rounds = 50_000;
    small_size = 256;
    max_size = 32 * 1024;
    large_frac = 50;
    seed = 23;
  }

let quick = { default with slots = 16; rounds = 2_000 }

let run instance ~threads p =
  let rt = instance.rt in
  let threshold =
    (* Straddle the superblock/large boundary of the shared class table
       regardless of the instance's sbsize: the default table's largest
       superblock-served payload. *)
    Mm_mem.Size_class.large_threshold (Mm_mem.Size_class.make ())
  in
  let body tid =
    let rng = Prng.create (p.seed + (tid * 131)) in
    let slots = Array.make p.slots 0 in
    for _ = 1 to p.rounds do
      let i = Prng.int rng p.slots in
      if slots.(i) <> 0 then begin
        instance.free slots.(i);
        slots.(i) <- 0
      end
      else begin
        let sz =
          if Prng.int rng 100 < p.large_frac then
            (* Large path: just past the threshold up to [max_size]. *)
            Prng.int_in rng (threshold + 1) p.max_size
          else Prng.int_in rng 8 p.small_size
        in
        let a = instance.malloc sz in
        instance.write_payload_round a ~len:(min sz 64) ~times:1;
        slots.(i) <- a
      end
    done;
    Array.iter (fun a -> if a <> 0 then instance.free a) slots
  in
  let run = Rt.parallel_run rt (Array.init threads (fun i _ -> body i)) in
  Metrics.make ~workload:"large-alloc" ~instance ~threads
    ~ops:(threads * p.rounds) ~run ()
