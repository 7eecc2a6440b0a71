(* Simulated OS memory substrate: regions, word access, recycling,
   hyperblocks, accounting. *)

open Mm_runtime

(* The real copy; both copies re-export the shared os_stats / snapshot
   fields. *)
module Store = Mm_mem.Store
module Space = Mm_mem.Space

module Store_s = Mm_mem_sim.Store
module Space_s = Mm_mem_sim.Space
module Addr = Mm_mem.Addr
open Util

let fresh ?(hyperblocks = false) ?(sbsize = 16 * 1024) () =
  Store.create () ~capacity:4096 ~sbsize ~hyperblocks ()

let superblock_basics () =
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  Alcotest.(check int) "base offset 0" 0 (Addr.offset sb);
  Alcotest.(check int) "sb length" (16 * 1024) (Store.region_len st sb);
  Store.write_word st (sb + 128) 999;
  Alcotest.(check int) "word roundtrip" 999 (Store.read_word st (sb + 128));
  Alcotest.(check int) "zero-initialized" 0 (Store.read_word st (sb + 256));
  Store.free_superblock st sb;
  let os = Store.os_stats st in
  Alcotest.(check int) "one mmap" 1 os.Store.mmap_calls;
  Alcotest.(check int) "one munmap" 1 os.Store.munmap_calls

let superblock_recycled_lazily_zeroed () =
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  Store.write_word st sb 777;
  Store.write_word st (sb + 8) 888;
  Store.free_superblock st sb;
  let mmaps_before = (Store.os_stats st).Store.mmap_calls in
  let sb2 = Store.alloc_superblock st in
  Alcotest.(check int) "recycled region id" (Addr.region sb) (Addr.region sb2);
  let os = Store.os_stats st in
  Alcotest.(check int) "pool hit counts a reuse, not an mmap" mmaps_before
    os.Store.mmap_calls;
  Alcotest.(check int) "one sb_reuse" 1 os.Store.sb_reuses;
  Alcotest.(check int) "two sb_allocs" 2 os.Store.sb_allocs;
  (* Stale bytes are cleared lazily: init_free_list writes the links and
     zeroes everything else, so after it the superblock is
     indistinguishable from a fresh mapping. *)
  Store.init_free_list st sb2 ~sz:64 ~maxcount:256;
  Alcotest.(check int) "link word rewritten" 1 (Store.read_word st sb2);
  Alcotest.(check int) "stale non-link word zeroed" 0
    (Store.read_word st (sb2 + 8))

let large_blocks () =
  let st = fresh () in
  let a = Store.alloc_large st ~len:100_000 in
  Alcotest.(check bool) "len at least requested" true
    (Store.region_len st a >= 100_000);
  Store.write_word st (a + 99_992) 5;
  Alcotest.(check int) "tail word" 5 (Store.read_word st (a + 99_992));
  let space = Space.read (Store.space st) in
  Alcotest.(check bool) "page-rounded accounting" true
    (space.Space.mapped >= 100_000 && space.Space.mapped < 100_000 + 4096);
  Store.free_large st a;
  let space = Space.read (Store.space st) in
  Alcotest.(check int) "unmapped" 0 space.Space.mapped;
  Alcotest.(check bool) "dead region reads 0" true (Store.read_word st a = 0);
  (* id recycled for the next large region *)
  let b = Store.alloc_large st ~len:64 in
  Alcotest.(check int) "large region id recycled" (Addr.region a)
    (Addr.region b)

let bounds_are_safe () =
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  Alcotest.(check int) "read past end" 0
    (Store.read_word st (sb + (16 * 1024) - 4));
  Store.write_word st (sb + (16 * 1024) - 4) 1;
  Alcotest.(check int) "write past end dropped" 0
    (Store.read_word st (sb + (16 * 1024) - 4));
  Alcotest.(check int) "unknown region" 0
    (Store.read_word st (Addr.make ~region:4000 ~offset:0))

let sim_bounds_assert () =
  (* In simulation a non-racy out-of-bounds word access is a bug in the
     allocator, not a benign miss — it must trip the assertion. The racy
     read keeps the tolerant behaviour (the paper's read of
     possibly-reused memory). *)
  let s = sim ~cpus:1 () in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           let st = Store_s.create s ~capacity:4096 ~sbsize:(16 * 1024) () in
           let sb = Store_s.alloc_superblock st in
           let oob = sb + (16 * 1024) - 4 in
           (try
              ignore (Store_s.read_word st oob);
              Alcotest.fail "sim OOB read did not assert"
            with Failure msg ->
              Alcotest.(check bool) "read diagnostic names the offset" true
                (String.length msg > 0));
           (try
              Store_s.write_word st oob 1;
              Alcotest.fail "sim OOB write did not assert"
            with Failure _ -> ());
           Alcotest.(check int) "racy OOB read stays tolerant" 0
             (Store_s.read_word_racy st oob);
           (* Dead regions stay tolerant in both modes: racy reads may
              legitimately target retired superblocks. *)
           Store_s.free_superblock st sb;
           Alcotest.(check int) "dead region reads 0" 0
             (Store_s.read_word st sb));
       |])

let init_free_list () =
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  Store.init_free_list st sb ~sz:64 ~maxcount:256;
  for i = 0 to 255 do
    Alcotest.(check int) "link" (i + 1) (Store.read_word st (sb + (i * 64)))
  done

let hyperblocks_batch () =
  let st = fresh ~hyperblocks:true () in
  let sbs = List.init 64 (fun _ -> Store.alloc_superblock st) in
  let os = Store.os_stats st in
  Alcotest.(check int) "one mmap for 64 superblocks" 1 os.Store.mmap_calls;
  Alcotest.(check int) "64 sb allocations" 64 os.Store.sb_allocs;
  (* all base addresses distinct, all writable independently *)
  List.iteri (fun i sb -> Store.write_word st sb i) sbs;
  List.iteri
    (fun i sb -> Alcotest.(check int) "independent" i (Store.read_word st sb))
    sbs;
  ignore (Store.alloc_superblock st);
  Alcotest.(check int) "65th superblock needs a second hyperblock" 2
    (Store.os_stats st).Store.mmap_calls;
  (* frees recycle without munmap *)
  List.iter (Store.free_superblock st) sbs;
  Alcotest.(check int) "no munmap with hyperblocks" 0
    (Store.os_stats st).Store.munmap_calls

let space_peaks () =
  let st = fresh () in
  let a = Store.alloc_superblock st in
  let b = Store.alloc_superblock st in
  Store.free_superblock st a;
  Store.free_superblock st b;
  let s = Space.read (Store.space st) in
  Alcotest.(check int) "current 0" 0 s.Space.mapped;
  Alcotest.(check int) "peak was 2 superblocks" (32 * 1024)
    s.Space.mapped_peak

let live_regions_count () =
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  let l = Store.alloc_large st ~len:64 in
  Alcotest.(check int) "two live" 2 (Store.live_regions st);
  Store.free_large st l;
  Alcotest.(check int) "one live" 1 (Store.live_regions st);
  ignore sb

let concurrent_region_alloc () =
  (* Region ids handed out concurrently never collide. *)
  for seed = 1 to 5 do
    let s = sim ~cpus:4 ~seed () in
    let st = Store_s.create s ~capacity:4096 () in
    let got = Array.make 4 [] in
    let body tid =
      for _ = 1 to 25 do
        got.(tid) <- Store_s.alloc_superblock st :: got.(tid)
      done
    in
    ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
    let all = List.concat (Array.to_list got) in
    let distinct = List.sort_uniq compare all in
    Alcotest.(check int) "100 distinct superblocks" 100 (List.length distinct)
  done

let validation () =
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  Alcotest.check_raises "free_superblock needs base"
    (Invalid_argument "Store.free_superblock: not a region base") (fun () ->
      Store.free_superblock st (sb + 8));
  Alcotest.check_raises "alloc_large needs positive len"
    (Invalid_argument "Store.alloc_large: len must be positive") (fun () ->
      ignore (Store.alloc_large st ~len:0))

let payload_round_real () =
  (* On the real runtime write_payload_round really writes. *)
  let st = fresh () in
  let sb = Store.alloc_superblock st in
  Store.write_payload_round st (sb + 8) ~len:8 ~times:3;
  Alcotest.(check bool) "bytes written" true (Store.read_word st (sb + 8) <> 0)

(* ---------------- Space ---------------- *)

let space_concurrent_peaks () =
  let s = sim ~cpus:4 () in
  let sp = Space_s.create s in
  let body _ =
    for _ = 1 to 100 do
      Space_s.add_used sp 10;
      Space_s.add_used sp (-10)
    done
  in
  ignore (Sim.run s (Array.make 4 body));
  let r = Space_s.read sp in
  Alcotest.(check int) "used back to zero" 0 r.Space.used;
  Alcotest.(check bool) "peak within bounds" true
    (r.Space.used_peak >= 10 && r.Space.used_peak <= 40)

let space_reset_peaks () =
  let sp = Space.create () in
  Space.add_mapped sp 100;
  Space.add_mapped sp (-50);
  Space.reset_peaks sp;
  let r = Space.read sp in
  Alcotest.(check int) "peak reset to current" 50 r.Space.mapped_peak

let cases =
  [
    case "superblock basics" superblock_basics;
    case "recycled superblocks reused without mmap, zeroed lazily"
      superblock_recycled_lazily_zeroed;
    case "large blocks" large_blocks;
    case "bounds are memory-safe" bounds_are_safe;
    case "sim mode asserts on non-racy OOB" sim_bounds_assert;
    case "init_free_list links" init_free_list;
    case "hyperblock batching" hyperblocks_batch;
    case "space peaks" space_peaks;
    case "live region count" live_regions_count;
    case "concurrent region alloc (sim x5 seeds)" concurrent_region_alloc;
    case "argument validation" validation;
    case "payload round writes (real)" payload_round_real;
    case "space concurrent peaks" space_concurrent_peaks;
    case "space reset peaks" space_reset_peaks;
  ]
