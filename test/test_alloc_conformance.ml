(* Allocator conformance suite.

   Every behaviour here is required of every registered allocator (the
   lock-free allocator, its cached frontend, the three lock-based
   baselines and the Blelloch–Wei constant-time baseline), on both the
   real and the simulated runtime — 12 combinations, one alcotest case
   per (behaviour, combination). *)

open Mm_runtime
module I = Mm_mem.Alloc_intf
module Store = Mm_mem.Store
module Space = Mm_mem.Space
module Sc = Mm_mem.Size_class
module Cfg = Mm_mem.Alloc_config
open Util

type env = {
  inst : I.instance;
  run : (int -> unit) array -> unit;  (* parallel run on the matching rt *)
  is_sim : bool;
}

let with_env ?(cfg = Cfg.make ~nheaps:4 ()) name kind f =
  match kind with
  | `Real ->
      f
        {
          inst = instance ~cfg name Rt.real;
          run = (fun bodies -> ignore (Rt.parallel_run Rt.real bodies));
          is_sim = false;
        }
  | `Sim ->
      let s = sim ~cpus:4 () in
      f
        {
          inst = instance ~cfg name (Rt.simulated s);
          run = (fun bodies -> ignore (Sim.run s bodies));
          is_sim = true;
        }

let malloc e = e.inst.I.malloc
let free e = e.inst.I.free
let check e = e.inst.I.check ()

(* ---------------- behaviours ---------------- *)

let distinct_addresses e =
  let addrs =
    Array.init 300 (fun i -> malloc e (1 + (i mod 97)))
  in
  let sorted = List.sort_uniq compare (Array.to_list addrs) in
  Alcotest.(check int) "all distinct" 300 (List.length sorted);
  Array.iter
    (fun a -> Alcotest.(check int) "8-aligned payload" 0 (a mod 8))
    addrs;
  Array.iter (free e) addrs;
  check e

let malloc_zero e =
  let a = malloc e 0 and b = malloc e 0 in
  Alcotest.(check bool) "valid distinct" true (a <> b && a <> 0 && b <> 0);
  free e a;
  free e b;
  check e

let payload_integrity e =
  let n = 200 in
  let addrs = Array.init n (fun i -> malloc e (8 + (8 * (i mod 30)))) in
  Array.iteri (fun i a -> e.inst.I.write_word a (i * 1_000_003)) addrs;
  (* Free every third block, then re-check the remaining payloads. *)
  Array.iteri (fun i a -> if i mod 3 = 0 then free e a) addrs;
  Array.iteri
    (fun i a ->
      if i mod 3 <> 0 then
        Alcotest.(check int) "payload survives other frees" (i * 1_000_003)
          (e.inst.I.read_word a))
    addrs;
  Array.iteri (fun i a -> if i mod 3 <> 0 then free e a) addrs;
  check e

let memory_reused e =
  (* A malloc/free loop must not keep consuming address space. *)
  for _ = 1 to 5_000 do
    free e (malloc e 24)
  done;
  let s = e.inst.I.space () in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d bounded" s.Space.mapped_peak)
    true
    (s.Space.mapped_peak <= 64 * (Cfg.make ()).Cfg.sbsize);
  check e

let large_blocks e =
  let threshold = 2040 in
  let sizes = [ threshold + 1; 5_000; 100_000; 1 lsl 20 ] in
  let addrs = List.map (fun n -> (n, malloc e n)) sizes in
  List.iter
    (fun (n, a) ->
      e.inst.I.write_word a n;
      e.inst.I.write_word (a + n - 8) (n * 2))
    addrs;
  List.iter
    (fun (n, a) ->
      Alcotest.(check int) "head word" n (e.inst.I.read_word a);
      Alcotest.(check int) "tail word" (n * 2)
        (e.inst.I.read_word (a + n - 8)))
    addrs;
  let before = (e.inst.I.os_stats ()).Store.munmap_calls in
  List.iter (fun (_, a) -> free e a) addrs;
  let after = (e.inst.I.os_stats ()).Store.munmap_calls in
  Alcotest.(check int) "large blocks munmapped" (before + 4) after;
  check e

let negative_size_rejected e =
  Alcotest.(check bool) "raises" true
    (match malloc e (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let free_null_noop e =
  free e 0;
  check e

let free_orders e =
  let rng = Prng.create 5 in
  List.iter
    (fun order ->
      let addrs = Array.init 500 (fun _ -> malloc e 40) in
      (match order with
      | `Lifo ->
          for i = 499 downto 0 do
            free e addrs.(i)
          done
      | `Fifo -> Array.iter (free e) addrs
      | `Random ->
          Prng.shuffle rng addrs;
          Array.iter (free e) addrs);
      check e)
    [ `Lifo; `Fifo; `Random ]

let whole_superblock_cycle e =
  (* More blocks than one superblock holds: exercises FULL transitions
     and the partial/new-superblock paths of every allocator. *)
  let sc = Sc.make () in
  let count = 3 * Sc.blocks_per_superblock sc 0 in
  let addrs = Array.init count (fun _ -> malloc e 8) in
  let sorted = List.sort_uniq compare (Array.to_list addrs) in
  Alcotest.(check int) "distinct across superblocks" count
    (List.length sorted);
  Array.iter (free e) addrs;
  check e

let all_classes e =
  let sc = Sc.make () in
  let addrs =
    List.init (Sc.count sc) (fun c ->
        let n = Sc.block_size sc c - 8 in
        let a = malloc e n in
        e.inst.I.write_word a n;
        (n, a))
  in
  List.iter
    (fun (n, a) ->
      Alcotest.(check int) "class payload" n (e.inst.I.read_word a))
    addrs;
  List.iter (fun (_, a) -> free e a) addrs;
  check e

let cross_thread_free e =
  (* Producer-consumer in miniature: thread 0 allocates, thread 1
     frees. *)
  let n = 300 in
  let handoff = Array.make n 0 in
  let (Rt.Backend ((module R), rt)) = Rt.backend (e.inst.I.rt) in
  let ready = R.Atomic.make rt 0 in
  e.run
    [|
      (fun _ ->
        for i = 0 to n - 1 do
          handoff.(i) <- malloc e 16
        done;
        R.Atomic.set ready 1);
      (fun _ ->
        while R.Atomic.get ready = 0 do
          R.yield rt
        done;
        for i = 0 to n - 1 do
          free e handoff.(i)
        done);
    |];
  check e

let concurrent_stress e =
  let body tid =
    let rng = Prng.create (tid + 99) in
    let slots = Array.make 32 0 in
    for _ = 1 to 600 do
      let s = Prng.int rng 32 in
      if slots.(s) <> 0 then begin
        free e slots.(s);
        slots.(s) <- 0
      end
      else slots.(s) <- malloc e (Prng.int_in rng 1 300)
    done;
    Array.iter (fun a -> if a <> 0 then free e a) slots
  in
  e.run (Array.init 4 (fun i _ -> body i));
  check e

let stats_sane e =
  let a = malloc e 100 in
  let s = e.inst.I.space () in
  let os = e.inst.I.os_stats () in
  Alcotest.(check bool) "mapped positive" true (s.Space.mapped > 0);
  Alcotest.(check bool) "peak >= current" true
    (s.Space.mapped_peak >= s.Space.mapped);
  Alcotest.(check bool) "superblock allocated" true (os.Store.sb_allocs >= 1);
  free e a

let behaviours =
  [
    ("distinct addresses", distinct_addresses);
    ("malloc 0", malloc_zero);
    ("payload integrity", payload_integrity);
    ("memory reused", memory_reused);
    ("large blocks", large_blocks);
    ("negative size rejected", negative_size_rejected);
    ("free null noop", free_null_noop);
    ("free orders", free_orders);
    ("whole superblock cycle", whole_superblock_cycle);
    ("all size classes", all_classes);
    ("cross-thread free", cross_thread_free);
    ("concurrent stress", concurrent_stress);
    ("stats sane", stats_sane);
  ]

let cases =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun (kind, klabel) ->
          List.map
            (fun (bname, b) ->
              case
                (Printf.sprintf "%s/%s/%s" name klabel bname)
                (fun () -> with_env name kind b))
            behaviours)
        [ (`Real, "real"); (`Sim, "sim") ])
    all_allocators
