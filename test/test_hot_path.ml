(* The real-runtime hot path (DESIGN.md §18, "real-runtime hot-path
   rules"): a malloc+free through the typed API allocates nothing on the
   OCaml heap, and [Atomic.make_contended] gives a shared word a cache
   line of its own without changing what the word does.

   What is verified here:
   - minor-heap words per operation stay <= 0.5 on Real_rt, one domain,
     after a warm-up, for a threadtest-style batch of 8-byte blocks and
     a larson-style mix, for "new", "new-ob" and — on a stream every
     malloc of which hits the cache — "new-cached";
   - a contended atomic is a block of at least 16 words on Real_rt and
     behaves as a plain atomic: get/set/CAS/fetch_and_add, and two
     domains' increments all land. Its Sim_rt half (same simulated
     steps as [make]) is pinned by the unedited golden checksums in
     test_specialization.ml. *)

open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module Lf = Mm_core.Lf_alloc.Make (Real_rt)
module Bc = Mm_core.Block_cache.Make (Real_rt)
open Util

let ops = 10_000
let max_words_per_op = 0.5

(* Words the minor heap received while [f] ran, per operation.
   [Gc.minor_words] boxes its float result, a few words counted in. *)
let words_per_op ~nops f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float nops

(* Threadtest-style: [ops] 8-byte mallocs in batches of [batch], each
   batch freed in allocation order. One malloc+free pair = 2 ops. *)
let threadtest ~malloc ~free ~batch =
  let live = Array.make batch 0 in
  fun () ->
    for _ = 1 to ops / batch do
      for i = 0 to batch - 1 do
        live.(i) <- malloc 8
      done;
      for i = 0 to batch - 1 do
        free live.(i)
      done
    done

(* Larson-style: [ops] steps, each freeing a seeded slot and refilling it
   with a seeded 16-80 B request. The script is drawn before timing. *)
let larson ~malloc ~free ~slots =
  let rng = Prng.create 7 in
  let size () = Prng.int_in rng 16 80 in
  let live = Array.init slots (fun _ -> malloc (size ())) in
  let slot = Array.init ops (fun _ -> Prng.int rng slots) in
  let sizes = Array.init ops (fun _ -> size ()) in
  fun () ->
    for j = 0 to ops - 1 do
      let s = slot.(j) in
      free live.(s);
      live.(s) <- malloc sizes.(j)
    done

let check_words what w =
  if w > max_words_per_op then
    Alcotest.failf "%s: %.2f minor words/op (bound %.1f)" what w
      max_words_per_op

(* Warm up (superblocks carved, code paths taken once), then measure a
   second run of the same loop. *)
let measure what loop =
  loop ();
  check_words what (words_per_op ~nops:(2 * ops) loop)

let plain_no_alloc cfg name () =
  let t = Lf.create () cfg in
  let malloc = Lf.malloc t and free = Lf.free t in
  measure (name ^ " threadtest") (threadtest ~malloc ~free ~batch:1000);
  measure (name ^ " larson") (larson ~malloc ~free ~slots:512)

(* A stream with no cache miss and no flush: [batch] is below the
   per-class cache depth, and the larson mix stays within one size class
   with fewer live blocks than that depth. The stats prove every timed
   malloc hit. *)
let cached_no_alloc () =
  let cfg = Cfg.make ~nheaps:1 ~cache:true () in
  let t = Bc.create () cfg in
  let malloc = Bc.malloc t and free = Bc.free t in
  let hits_only what loop =
    loop ();
    let s0 = Bc.stats t in
    let w = words_per_op ~nops:(2 * ops) loop in
    let s1 = Bc.stats t in
    Alcotest.(check int) (what ^ ": no misses") s0.Bc.misses s1.Bc.misses;
    Alcotest.(check int) (what ^ ": no flushes") s0.Bc.flushes s1.Bc.flushes;
    check_words what w
  in
  hits_only "new-cached threadtest"
    (threadtest ~malloc ~free ~batch:(cfg.Cfg.cache_blocks / 2));
  let rng = Prng.create 3 in
  let slots = cfg.Cfg.cache_blocks / 2 in
  let live = Array.init slots (fun _ -> malloc 24) in
  let slot = Array.init ops (fun _ -> Prng.int rng slots) in
  let sizes = Array.init ops (fun _ -> Prng.int_in rng 17 24) in
  hits_only "new-cached larson" (fun () ->
      for j = 0 to ops - 1 do
        let s = slot.(j) in
        free live.(s);
        live.(s) <- malloc sizes.(j)
      done)

let base = Cfg.make ~nheaps:1 ()

let contended_layout () =
  let a = Real_rt.Atomic.make_contended () 5 in
  let size = Obj.size (Obj.repr a) in
  if size < 16 then Alcotest.failf "contended atomic spans %d words" size;
  Alcotest.(check int) "get" 5 (Real_rt.Atomic.get a);
  Real_rt.Atomic.set a 7;
  Alcotest.(check int) "set" 7 (Real_rt.Atomic.get a);
  Alcotest.(check bool) "failing CAS" false
    (Real_rt.Atomic.compare_and_set a 5 9);
  Alcotest.(check bool) "CAS" true (Real_rt.Atomic.compare_and_set a 7 9);
  Alcotest.(check int) "fetch_and_add" 9 (Real_rt.Atomic.fetch_and_add a 3);
  Real_rt.Atomic.incr a;
  Alcotest.(check int) "incr" 13 (Real_rt.Atomic.get a);
  (* A boxed value: field 0 is scanned like any other field. *)
  let s = Real_rt.Atomic.make_contended () "x" in
  Gc.full_major ();
  Alcotest.(check bool) "boxed CAS" true
    (Real_rt.Atomic.compare_and_set s (Real_rt.Atomic.get s) "y");
  Gc.full_major ();
  Alcotest.(check string) "boxed get" "y" (Real_rt.Atomic.get s)

let contended_two_domains () =
  let n = 200_000 in
  let a = Real_rt.Atomic.make_contended () 0 in
  let body _ =
    for _ = 1 to n do
      ignore (Real_rt.Atomic.fetch_and_add a 1 : int)
    done
  in
  ignore (Real_rt.parallel_run () [| body; body |]);
  Alcotest.(check int) "2N increments" (2 * n) (Real_rt.Atomic.get a)

let cases =
  [
    case "new: no minor words per op" (plain_no_alloc base "new");
    case "new-ob: no minor words per op"
      (plain_no_alloc { base with Cfg.free_lists = `Owner_biased } "new-ob");
    case "new-cached: no minor words per cache hit" cached_no_alloc;
    case "make_contended: padded block, plain-atomic semantics"
      contended_layout;
    case "make_contended: two domains' fetch_and_add" contended_two_domains;
  ]
