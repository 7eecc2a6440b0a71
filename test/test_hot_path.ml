(* The real-runtime hot path (DESIGN.md §18, "real-runtime hot-path
   rules"): a malloc+free through the typed API allocates nothing on the
   OCaml heap, and [Atomic.make_contended] gives a shared word a cache
   line of its own without changing what the word does.

   What is verified here:
   - minor-heap words per operation stay <= 0.5 on Real_rt, one domain,
     after a warm-up, for a threadtest-style batch of 8-byte blocks and
     a larson-style mix, for "new", "new-ob", "new-cached" and "bw" — the
     cache on streams that only hit, on a batch that refills and
     overflows, and on remote frees that flush the remote buffer;
   - a contended atomic is a block of at least 16 words on Real_rt and
     behaves as a plain atomic: get/set/CAS/fetch_and_add, and two
     domains' increments all land. Its Sim_rt half (same simulated
     steps as [make]) is pinned by the unedited golden checksums in
     test_specialization.ml. *)

open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module Lf = Mm_core.Lf_alloc
module Bc = Mm_core.Block_cache
module Bw = Mm_baselines.Bw_alloc
open Util

let ops = 10_000
let max_words_per_op = 0.5
let base = Cfg.make ~nheaps:1 ()

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

let shapes name ~batch ~malloc ~free =
  measure (name ^ " threadtest") (threadtest ~malloc ~free ~batch);
  measure (name ^ " larson") (larson ~malloc ~free ~slots:512)

let plain_no_alloc cfg name () =
  let t = Lf.create () cfg in
  shapes name ~batch:1000 ~malloc:(Lf.malloc t) ~free:(Lf.free t)

(* The Blelloch-Wei yardstick (PAPERS.md) on the same shapes: its free
   reads the one block prefix, as Lf_alloc.free does. Its batch hand-offs still allocate a Treiber-stack node
   and a closure per 16 blocks: 0.48 words/op on 100-block batches,
   0.496 on 1000-block ones, hence the smaller batch. *)
let bw_no_alloc () =
  let t = Bw.create () base in
  shapes "bw" ~batch:100 ~malloc:(Bw.malloc t) ~free:(Bw.free t)

(* Cache hits first: a stream with no miss and no flush. [batch] is
   below the per-class cache depth, and the larson mix stays within one
   size class with fewer live blocks than that depth. The stats prove
   every timed malloc hit. Then the miss path: a threadtest batch far
   past the cache depth refills and overflows on every round, and a
   remote-free stream — blocks malloc'd by a second domain on the other
   processor heap, freed by this one — fills and flushes the remote
   buffer. The stats prove refills, local flushes and remote flushes all
   ran while the minor heap was being counted. *)
let cached_no_alloc () =
  let cfg = Cfg.make ~nheaps:2 ~cache:true () in
  let t = Bc.create () cfg in
  let malloc = Bc.malloc t and free = Bc.free t in
  let timed ~nops loop =
    loop ();
    let s0 = Bc.stats t in
    let w = words_per_op ~nops loop in
    (s0, Bc.stats t, w)
  in
  let hits_only what loop =
    let s0, s1, w = timed ~nops:(2 * ops) loop in
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
      done);
  let what = "new-cached threadtest, batch 1000" in
  let s0, s1, w = timed ~nops:(2 * ops) (threadtest ~malloc ~free ~batch:1000) in
  Alcotest.(check bool) (what ^ ": refills") true (s1.Bc.refills > s0.Bc.refills);
  Alcotest.(check bool) (what ^ ": flushes") true (s1.Bc.flushes > s0.Bc.flushes);
  Alcotest.(check int) (what ^ ": all local") s0.Bc.remote_frees
    s1.Bc.remote_frees;
  check_words what w;
  (* The second domain (dense id 1, heap 1) mallocs outside the count;
     this domain (id 0, heap 0) only frees. *)
  let what = "new-cached remote frees" in
  let remote = Array.make ops 0 in
  let produce () =
    ignore
      (Real_rt.parallel_run ()
         [|
           ignore;
           (fun _ ->
             for i = 0 to ops - 1 do
               remote.(i) <- malloc 32
             done);
         |])
  in
  let consume () =
    for i = 0 to ops - 1 do
      free remote.(i)
    done
  in
  produce ();
  consume ();
  produce ();
  let s0 = Bc.stats t in
  let w = words_per_op ~nops:ops consume in
  let s1 = Bc.stats t in
  Alcotest.(check int) (what ^ ": every free remote") ops
    (s1.Bc.remote_frees - s0.Bc.remote_frees);
  Alcotest.(check int)
    (what ^ ": flushed in batches")
    (ops / cfg.Cfg.cache_batch)
    (s1.Bc.flushes - s0.Bc.flushes);
  check_words what w

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
    case "new-cached: no minor words per cache hit, miss or flush"
      cached_no_alloc;
    case "bw: no minor words per op" bw_no_alloc;
    case "make_contended: padded block, plain-atomic semantics"
      contended_layout;
    case "make_contended: two domains' fetch_and_add" contended_two_domains;
  ]
