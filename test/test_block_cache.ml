(* The block-cache frontend (DESIGN.md §13): per-thread LIFO caches in
   front of the paper's allocator, refilled by batched credit
   reservation and drained by batched flushes.

   What is verified here:
   - batch accounting: hits/misses/refills/flushes relate to the
     operation stream exactly as the design says;
   - [create] rejects a config without [cache]: the frontend always
     caches, and the uncached configuration is the bare allocator; it
     rejects owner-biased free lists, which carry their own layer;
   - remote frees never enter a local cache; they are buffered and
     pushed back in batches of [cache_batch];
   - the explorer's address-exclusivity oracle holds with the cache on;
   - killing a thread inside any batched bc.* CAS window leaks its
     blocks but never lets them be allocated twice;
   - the single-block paths are the size-one case of the batched ones:
     [free p] and [flush_batch [p]], [malloc] and [refill_batch ~max:1]
     leave the same words behind, and the retry census keeps its site
     order and its agreement with obs. *)

open Mm_runtime
module A = Mm_core_sim.Lf_alloc
module D = Mm_core_sim.Descriptor
module Anchor = Mm_core.Anchor
module Pub_word = Mm_core.Pub_word
module Store = Mm_mem_sim.Store
module Traced = Mm_harness.Traced
module W = Mm_workloads
module Bc = Mm_core_sim.Block_cache
module L = Mm_core.Labels
module Cfg = Mm_mem.Alloc_config
module O = Mm_check.Oracle
module E = Mm_check.Explore
module T = Mm_check.Target
open Util

let cached_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:8 ~desc_scan_threshold:1
    ~cache:true ~cache_blocks:4 ~cache_batch:2 ()

(* Single-thread accounting: every stats field is determined by the
   operation stream and the cache geometry, independent of scheduling. *)
let batch_accounting () =
  let s = sim ~cpus:1 () in
  let rt = s in
  let t = Bc.create rt cached_cfg in
  let body _ =
    let n = 6 in
    let addrs = Array.init n (fun _ -> Bc.malloc t 8) in
    let distinct = Hashtbl.create n in
    Array.iter
      (fun a ->
        if Hashtbl.mem distinct a then
          Alcotest.failf "address %d handed out twice" a;
        Hashtbl.add distinct a ())
      addrs;
    let s1 = Bc.stats t in
    Alcotest.(check int) "hits+misses = mallocs" n
      (s1.Bc.hits + s1.Bc.misses);
    Alcotest.(check bool) "at least one batched refill" true
      (s1.Bc.refills >= 1);
    (* Every refill hands one block to the caller and caches the rest;
       cached leftovers are whatever hits have not yet consumed. *)
    Alcotest.(check int) "refilled = refills + hits + still cached"
      s1.Bc.refilled_blocks
      (s1.Bc.refills + s1.Bc.hits + Bc.cached_blocks t);
    Alcotest.(check int) "no flush before any free" 0 s1.Bc.flushes;
    Array.iter (Bc.free t) addrs;
    let s2 = Bc.stats t in
    (* Before flush_current every flush is an overflow or remote-batch
       flush, both exactly cache_batch blocks. *)
    Alcotest.(check int) "flushes are batch-sized"
      (s2.Bc.flushes * cached_cfg.Cfg.cache_batch)
      s2.Bc.flushed_blocks;
    Alcotest.(check bool) "overflow flush fired" true (s2.Bc.flushes >= 1);
    Alcotest.(check bool) "cache bounded" true
      (Bc.cached_blocks t
      <= Sim_rt.max_threads * cached_cfg.Cfg.cache_blocks);
    Bc.flush_current t;
    Alcotest.(check int) "flush_current drains the cache" 0
      (Bc.cached_blocks t);
    let m, f = Bc.op_counts t in
    Alcotest.(check int) "frontend conservation" m f;
    Bc.check_invariants t
  in
  ignore (Sim.run s [| body |])

let create_needs_cache () =
  Alcotest.check_raises "cache:false rejected"
    (Invalid_argument "Block_cache.create: cfg.cache is false") (fun () ->
      ignore (Bc.create (sim ~cpus:1 ()) (Cfg.make ())))

let create_rejects_owner_bias () =
  Alcotest.check_raises "owner-biased free lists rejected"
    (Invalid_argument
       "Block_cache.create: owner-biased free lists carry their own \
        thread-local layer") (fun () ->
      ignore
        (Bc.create (sim ~cpus:1 ())
           (Cfg.make ~cache:true ~free_lists:`Owner_biased ())))

(* Remote frees: with two processor heaps, thread 1 freeing thread 0's
   blocks must route them through the remote buffer (never its local
   cache) and push them back in exact batches. *)
let remote_free_batching () =
  let cfg =
    Cfg.make ~nheaps:2 ~sbsize:4096 ~maxcredits:8 ~desc_scan_threshold:1
      ~cache:true ~cache_blocks:4 ~cache_batch:2 ()
  in
  let s = sim ~cpus:2 () in
  let rt = s in
  let t = Bc.create rt cfg in
  let blocks = Array.make 4 0 in
  let ready = ref false in
  let producer _ =
    for i = 0 to 3 do
      blocks.(i) <- Bc.malloc t 8
    done;
    ready := true
  in
  let consumer _ =
    while not !ready do
      Sim_rt.yield rt
    done;
    Array.iter (Bc.free t) blocks
  in
  ignore (Sim.run s [| (fun _ -> producer 0); (fun _ -> consumer 1) |]);
  let st = Bc.stats t in
  Alcotest.(check int) "all four frees were remote" 4 st.Bc.remote_frees;
  Alcotest.(check int) "two batch flushes of two" 2 st.Bc.flushes;
  Alcotest.(check int) "flushed in exact batches" 4 st.Bc.flushed_blocks;
  Bc.check_invariants t

(* Schedule exploration with the oracle from lib/check: bounded
   exhaustive over the cached target (the quick gate runs a bigger
   budget; this is the in-tree regression). *)
let explorer_exclusivity () =
  let target = T.lf_alloc_cached in
  let r = E.exhaustive target ~threads:2 ~bound:2 ~budget:5_000 in
  match r.E.finding with
  | None -> ()
  | Some f -> Alcotest.failf "cached allocator violation: %s" f.E.error

(* Kill a thread inside each batched CAS window. Its reserved or cached
   blocks leak, but the exclusivity oracle proves no survivor — nor a
   fresh wave afterwards — is ever handed one of them. *)
let kill_in_window label () =
  let killed = ref (-1) in
  let on_label ~tid l =
    if l = label && !killed = -1 then begin
      killed := tid;
      Sim.Kill
    end
    else Sim.Continue
  in
  let s = sim ~cpus:4 ~max_cycles:50_000_000_000 ~on_label () in
  let rt = s in
  let t = Bc.create rt cached_cfg in
  let orc = O.create_alloc () in
  let m () =
    let a = Bc.malloc t 8 in
    O.malloc_returned orc a;
    a
  in
  let f a =
    let p = O.free_invoked orc a in
    Bc.free t a;
    O.free_returned orc p
  in
  let body _tid =
    for _ = 1 to 2 do
      let addrs = Array.init 30 (fun _ -> m ()) in
      Array.iter f addrs
    done
  in
  (try ignore (Sim.run s (Array.init 4 (fun _ -> body)))
   with O.Violation msg -> Alcotest.failf "exclusivity violated: %s" msg);
  Alcotest.(check bool) ("kill fired: " ^ label) true (!killed >= 0);
  (* Fresh wave on the same heap: the killed thread's blocks must stay
     leaked — the oracle still holds them and would reject a re-issue. *)
  try
    ignore
      (Sim.run s
         [|
           (fun _ ->
             let addrs = Array.init 100 (fun _ -> m ()) in
             Array.iter f addrs);
         |])
  with O.Violation msg ->
    Alcotest.failf "leaked block re-allocated after kill: %s" msg

let bc_labels = [ L.bc_reserve_cas; L.bc_pop_cas; L.bc_flush_cas ]

(* ---------------- size one = a batch of one ---------------- *)

(* Every shared word of a quiescent heap: each processor heap's Active
   word and Partial slot, and per live descriptor its anchor, pub word,
   private-list fields and the block order of its anchor, private and
   public lists. *)
let heap_words t =
  let store = A.store t in
  let walk (d : D.t) head n =
    let rec go idx k acc =
      if k = 0 || idx < 0 || idx >= d.maxcount then List.rev acc
      else
        go
          (Store.read_word store (d.sb + (idx * d.sz)) land Anchor.max_count)
          (k - 1) (idx :: acc)
    in
    go head n []
  in
  let heaps =
    List.concat_map
      (fun sc ->
        List.concat_map
          (fun heap ->
            (match A.heap_active_desc t ~sc ~heap with
            | Some (d, credits) -> [ d.D.id; credits ]
            | None -> [ 0; 0 ])
            @ [
                (match A.heap_partial_desc t ~sc ~heap with
                | Some d -> d.D.id
                | None -> 0);
              ])
          (List.init (A.nheaps t) Fun.id))
      (List.init (Mm_mem.Size_class.count (A.size_classes t)) Fun.id)
  in
  let descs =
    D.fold_live (A.descriptor_table t) ~init:[] ~f:(fun acc d ->
        let a = Sim_rt.Atomic.get d.D.anchor
        and p = Sim_rt.Atomic.get d.D.pub in
        ([ d.D.id; a; p; d.D.priv_head; d.D.priv_count ]
        @ walk d (Anchor.avail a) (Anchor.count a)
        @ walk d d.D.priv_head d.D.priv_count
        @ walk d (Pub_word.head p) (Pub_word.count p))
        :: acc)
  in
  heaps :: List.rev descs

(* The same heap every time for a given seed: thread 0 mallocs enough
   8-byte blocks to fill its first superblock and start a second, then
   frees a seeded subset of the second superblock's. Returns the sim, the
   heap and the blocks still held: the first superblock's (FULL) then
   the second's (active). *)
let seeded_heap ~seed =
  let s = sim ~cpus:2 ~seed () in
  (* maxcredits 4: across the seeds the heap ends with every credit
     count 0..3, so refill ~max:1 also takes the last reservation. *)
  let t =
    A.create s (Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:4 ())
  in
  let per_sb =
    Mm_mem.Size_class.blocks_per_superblock (A.size_classes t)
      (Option.get (Mm_mem.Size_class.class_of_request (A.size_classes t) 8))
  in
  let held = ref [] in
  let body _ =
    let rng = Prng.create seed in
    let blocks = Array.init (per_sb + 40 + seed) (fun _ -> A.malloc t 8) in
    Array.iteri
      (fun i p ->
        if i >= per_sb && Prng.int rng 3 = 0 then A.free t p
        else held := p :: !held)
      blocks
  in
  ignore (Sim.run s [| body |]);
  (s, t, per_sb, Array.of_list (List.rev !held))

(* Run [f] as simulated thread [tid] (lower ids idle). *)
let run_as s tid f =
  let r = ref None in
  ignore
    (Sim.run s
       (Array.init (tid + 1) (fun i _ -> if i = tid then r := Some (f ()))));
  Option.get !r

let size_one_is_batch_of_one () =
  for seed = 1 to 4 do
    let fresh () = seeded_heap ~seed in
    let _, _, per_sb, held = fresh () in
    let rng = Prng.create (100 + seed) in
    (* A first-superblock block freed by its allocating thread, then
       second-superblock blocks freed by it and by the other
       thread. *)
    List.iter
      (fun (what, tid, p) ->
        let s1, t1, _, _ = fresh () and s2, t2, _, _ = fresh () in
        run_as s1 tid (fun () -> A.free t1 p);
        run_as s2 tid (fun () -> A.flush_batch t2 [ p ]);
        if heap_words t1 <> heap_words t2 then
          Alcotest.failf "seed %d: free and flush_batch [p] of %s differ"
            seed what;
        A.check_invariants t1)
      [
        ("a first-superblock block", 0, held.(Prng.int rng per_sb));
        ( "a local second-superblock block",
          0,
          held.(per_sb + Prng.int rng (Array.length held - per_sb)) );
        ( "a remote second-superblock block",
          1,
          held.(per_sb + Prng.int rng (Array.length held - per_sb)) );
      ];
    let s1, t1, _, _ = fresh () and s2, t2, _, _ = fresh () in
    let sc =
      Option.get
        (Mm_mem.Size_class.class_of_request (A.size_classes t2) 8)
    in
    let p1 = run_as s1 0 (fun () -> A.malloc t1 8) in
    let p2 = run_as s2 0 (fun () -> A.refill_batch t2 ~sc ~max:1) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: malloc = refill_batch ~max:1" seed)
      [ p1 ] p2;
    if heap_words t1 <> heap_words t2 then
      Alcotest.failf "seed %d: malloc and refill_batch ~max:1 differ" seed
  done

(* A batch interleaving two superblocks' blocks with a large block is
   one flush per superblock, in first-seen order and in-batch block
   order, and the large block goes straight back to the store. *)
let interleaved_groups_flush_as_separate_batches () =
  for seed = 1 to 4 do
    let fresh () =
      let s, t, per_sb, held = seeded_heap ~seed in
      let large = run_as s 0 (fun () -> A.malloc t 5000) in
      (s, t, per_sb, held, large)
    in
    let s1, t1, per_sb, held, l = fresh () and s2, t2, _, _, _ = fresh () in
    let a i = held.(i) and b i = held.(per_sb + i) in
    let large_munmaps t = (Store.os_stats (A.store t)).large_munmaps in
    let before = large_munmaps t1 in
    (* A's descriptor, read while a3's prefix still names it. *)
    let store = A.store t1 in
    let d =
      D.get (A.descriptor_table t1)
        (Mm_mem.Block_prefix.desc_id (Store.read_word store (a 3 - Mm_mem.Block_prefix.prefix_bytes)))
    in
    let index p = (p - Mm_mem.Block_prefix.prefix_bytes - d.D.sb) / d.D.sz in
    let rec walk idx k =
      if k = 0 then []
      else
        idx
        :: walk
             (Store.read_word store (d.D.sb + (idx * d.D.sz))
             land Anchor.max_count)
             (k - 1)
    in
    run_as s1 0 (fun () ->
        A.flush_batch t1 [ a 3; b 2; a 0; l; b 0; a 5 ]);
    run_as s2 0 (fun () ->
        A.flush_batch t2 [ a 3; a 0; a 5 ];
        A.flush_batch t2 [ b 2; b 0 ]);
    if heap_words t1 <> heap_words t2 then
      Alcotest.failf
        "seed %d: interleaved flush differs from one flush per superblock"
        seed;
    (* One chained run per superblock: A's list starts a3, a0, a5. *)
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: A's run in batch order" seed)
      [ index (a 3); index (a 0); index (a 5) ]
      (walk (Anchor.avail (Sim_rt.Atomic.get d.D.anchor)) 3);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: large block returned" seed)
      (before + 1) (large_munmaps t1);
    A.check_invariants t1
  done

let census_order_and_obs_agreement () =
  Alcotest.(check (list string))
    "retry_counts lists retry_sites in registry order"
    (List.map fst L.census_sites @ List.map fst Mm_pages.Pg_labels.census_sites)
    (List.map fst (A.retry_counts (A.create (sim ()) (Cfg.make ()))));
  List.iter
    (fun allocator ->
      let c =
        Traced.capture ~allocator ~nheaps:1 ~name:"threadtest" ~threads:8
          ~seed:1 (fun inst ~threads ->
            W.Threadtest.run inst ~threads
              { W.Threadtest.quick with iterations = 2; blocks = 100 })
      in
      let agg = Option.get c.Traced.metric.W.Metrics.obs in
      Alcotest.(check (list (pair string int)))
        (allocator ^ ": obs census = striped census")
        c.Traced.retry_counts
        (Traced.core_retry_counts agg))
    [ "new"; "new-cached"; "new-ob" ]

(* A large block freed through the cache goes to the backend with the
   prefix [classify] read: each layer counts one malloc and one free,
   the block is unmapped, and the heap checks out, on both runtimes. *)
let large_free_through_cache () =
  let cfg = Cfg.make ~nheaps:1 ~cache:true () in
  let n = cfg.Cfg.sbsize in
  let check what ~cache ~backend ~large_munmaps =
    Alcotest.(check (pair int int)) (what ^ ": cache op_counts") (1, 1) cache;
    Alcotest.(check (pair int int))
      (what ^ ": backend op_counts") (1, 1) backend;
    Alcotest.(check int) (what ^ ": large block unmapped") 1 large_munmaps
  in
  let module R = Mm_core.Block_cache in
  let t = R.create () cfg in
  R.free t (R.malloc t n);
  check "real" ~cache:(R.op_counts t)
    ~backend:(Mm_core.Lf_alloc.op_counts (R.backend t))
    ~large_munmaps:(Mm_mem.Store.os_stats (R.store t)).Store.large_munmaps;
  R.check_invariants t;
  let s = sim ~cpus:1 () in
  let t = Bc.create s cfg in
  ignore (Sim.run s [| (fun _ -> Bc.free t (Bc.malloc t n)) |]);
  check "sim" ~cache:(Bc.op_counts t) ~backend:(A.op_counts (Bc.backend t))
    ~large_munmaps:(Store.os_stats (Bc.store t)).Store.large_munmaps;
  Bc.check_invariants t

let cases =
  [
    case "batched refill/flush accounting" batch_accounting;
    case "large free through the cache: counted once, both runtimes"
      large_free_through_cache;
    case "create rejects cache:false" create_needs_cache;
    case "create rejects owner-biased free lists" create_rejects_owner_bias;
    case "remote frees flushed in exact batches" remote_free_batching;
    case "explorer: exclusivity with cache enabled" explorer_exclusivity;
    case "free/malloc are flush/refill of one block" size_one_is_batch_of_one;
    case "interleaved multi-superblock flushes, one per superblock"
      interleaved_groups_flush_as_separate_batches;
    case "retry census: site order, obs agreement"
      census_order_and_obs_agreement;
  ]
  @ List.map
      (fun l -> case ("kill inside " ^ l ^ " never double-allocates")
          (kill_in_window l))
      bc_labels
