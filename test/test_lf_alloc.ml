(* Deep tests of the lock-free allocator: superblock state machine,
   credits discipline, forced execution of every algorithm path via
   schedule control, the paper's ABA scenario, and negative tests of the
   invariant checker. *)

open Mm_runtime
module A = Mm_core.Lf_alloc
module As = Mm_core_sim.Lf_alloc
module L = Mm_core.Labels
module Anchor = Mm_core.Anchor
module D = Mm_core.Descriptor
module Pl = Mm_core.Partial_list
module Pool = Mm_core.Desc_pool
module Cfg = Mm_mem.Alloc_config

module Store = Mm_mem.Store

module Store_s = Mm_mem_sim.Store
open Util

(* Small superblocks make state transitions cheap to reach. *)
let small_cfg = Cfg.make ~nheaps:1 ~sbsize:4096 ()
let probe_kill_cfg = Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:1 ()

let blocks_per_sb t = Mm_mem.Size_class.blocks_per_superblock (A.size_classes t) 0
let blocks_per_sb_s t =
  Mm_mem.Size_class.blocks_per_superblock (As.size_classes t) 0

(* ---------------- sequential state machine ---------------- *)

let fill_superblock () =
  let t = A.create () small_cfg in
  let n = blocks_per_sb t in
  (* Fill the first superblock completely. *)
  let addrs = Array.init n (fun _ -> A.malloc t 8) in
  (* Find the descriptor through a block prefix. *)
  let prefix = Store.read_word (A.store t) (addrs.(0) - 8) in
  let d = D.get (A.descriptor_table t) (Mm_mem.Block_prefix.desc_id prefix) in
  Alcotest.(check bool) "superblock is FULL" true
    (Anchor.state (Real_rt.Atomic.get d.D.anchor) = Anchor.Full);
  Alcotest.(check int) "count 0" 0 (Anchor.count (Real_rt.Atomic.get d.D.anchor));
  (* First free makes it PARTIAL and parks it in the heap Partial slot. *)
  A.free t addrs.(0);
  Alcotest.(check bool) "PARTIAL after first free" true
    (Anchor.state (Real_rt.Atomic.get d.D.anchor) = Anchor.Partial);
  (match A.heap_partial_desc t ~sc:0 ~heap:0 with
  | Some d' -> Alcotest.(check bool) "in Partial slot" true (d' == d)
  | None ->
      (* It may instead be in the size-class list if the slot was taken. *)
      Alcotest.(check bool) "in partial structures" true
        (List.memq d (Pl.to_list (A.partial_list t ~sc:0))));
  A.check_invariants t;
  (* Freeing everything else empties the superblock and returns it. *)
  let munmaps_before = (Store.os_stats (A.store t)).Store.munmap_calls in
  for i = 1 to n - 1 do
    A.free t addrs.(i)
  done;
  Alcotest.(check bool) "EMPTY at the end" true
    (Anchor.state (Real_rt.Atomic.get d.D.anchor) = Anchor.Empty);
  Alcotest.(check int) "superblock munmapped" (munmaps_before + 1)
    (Store.os_stats (A.store t)).Store.munmap_calls;
  A.check_invariants t

let malloc_from_partial_path () =
  let hits = Hashtbl.create 16 in
  let on_label ~tid:_ l =
    Hashtbl.replace hits l (1 + Option.value (Hashtbl.find_opt hits l) ~default:0);
    Sim.Continue
  in
  let s = sim ~cpus:1 ~on_label () in
  let t = As.create s small_cfg in
  let n = blocks_per_sb_s t in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           let addrs = Array.init n (fun _ -> As.malloc t 8) in
           As.free t addrs.(0);
           (* Active is gone (FULL), one block in the Partial slot:
              the next malloc must take the MallocFromPartial path. *)
           let b = As.malloc t 8 in
           Alcotest.(check int) "recycled the freed slot" addrs.(0) b;
           As.free t b;
           Array.iteri (fun i a -> if i > 0 then As.free t a) addrs);
       |]);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("hit " ^ l) true (Hashtbl.mem hits l))
    [ L.mp_got_partial; L.mp_reserve_cas; L.mp_pop_cas; L.free_empty ];
  As.check_invariants t

let credits_bounds () =
  let t = A.create () (Cfg.make ~nheaps:1 ~maxcredits:64 ()) in
  let a = A.malloc t 8 in
  (match A.heap_active_desc t ~sc:0 ~heap:0 with
  | Some (_, credits) ->
      Alcotest.(check bool) "credits within field bound" true
        (credits >= 0 && credits <= 63)
  | None -> Alcotest.fail "expected an active superblock");
  A.free t a;
  A.check_invariants t

let maxcredits_one () =
  (* The degenerate credits configuration exercises UpdateActive on
     every allocation. *)
  let t = A.create () (Cfg.make ~nheaps:1 ~maxcredits:1 ()) in
  let addrs = Array.init 500 (fun _ -> A.malloc t 8) in
  Alcotest.(check int) "distinct" 500
    (List.length (List.sort_uniq compare (Array.to_list addrs)));
  Array.iter (A.free t) addrs;
  A.check_invariants t

let op_counts () =
  let t = A.create () small_cfg in
  let addrs = Array.init 10 (fun _ -> A.malloc t 8) in
  Array.iter (A.free t) addrs;
  Alcotest.(check (pair int int)) "counts" (10, 10) (A.op_counts t)

(* ---------------- schedule-forced paths ---------------- *)

(* UpdateActive install race (Fig. 4 UpdateActive lines 4-8): thread 0
   holds morecredits and blocks just before reinstalling; thread 1
   installs a new superblock first; thread 0 must return the credits and
   make its superblock PARTIAL. *)
let ua_return_credits_path () =
  let t1_done = ref false in
  let ua_returned = ref 0 in
  let blocked_once = ref false in
  let on_label ~tid l =
    if l = L.ua_install && tid = 0 && not !blocked_once then begin
      blocked_once := true;
      Sim.Block_until (fun () -> !t1_done)
    end
    else begin
      if l = L.ua_return_credits then incr ua_returned;
      Sim.Continue
    end
  in
  let s = sim ~cpus:2 ~on_label () in
  let t = As.create s (Cfg.make ~nheaps:1 ~maxcredits:1 ()) in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           (* With maxcredits=1 the second malloc reaches UpdateActive. *)
           let a = As.malloc t 8 in
           let b = As.malloc t 8 in
           As.free t a;
           As.free t b);
         (fun _ ->
           while not !blocked_once do
             Sim_rt.yield (As.rt t)
           done;
           let c = As.malloc t 8 in
           As.free t c;
           t1_done := true);
       |]);
  Alcotest.(check bool) "took the return-credits path" true (!ua_returned >= 1);
  As.check_invariants t

(* MallocFromNewSB race (Fig. 4 lines 16-17): both threads build a new
   superblock; the loser must free its superblock and retire the
   descriptor. *)
let mnsb_race_path () =
  let t1_done = ref false in
  let blocked_once = ref false in
  let on_label ~tid l =
    if l = L.mnsb_install && tid = 0 && not !blocked_once then begin
      blocked_once := true;
      Sim.Block_until (fun () -> !t1_done)
    end
    else Sim.Continue
  in
  let s = sim ~cpus:2 ~on_label () in
  let t = As.create s (Cfg.make ~nheaps:1 ()) in
  let results = Array.make 2 0 in
  ignore
    (Sim.run s
       [|
         (fun _ -> results.(0) <- As.malloc t 8);
         (fun _ ->
           while not !blocked_once do
             Sim_rt.yield (As.rt t)
           done;
           results.(1) <- As.malloc t 8;
           t1_done := true);
       |]);
  Alcotest.(check bool) "both mallocs succeeded, distinct" true
    (results.(0) <> 0 && results.(1) <> 0 && results.(0) <> results.(1));
  (* The losing superblock went straight back to the OS. *)
  let os = Store_s.os_stats (As.store t) in
  Alcotest.(check int) "loser freed its superblock" 1 os.Store.sb_frees;
  As.free t results.(0);
  As.free t results.(1);
  As.check_invariants t

(* The paper's §3.2.3 ABA scenario: thread 0 pauses between reading the
   anchor (and the next pointer) and its pop CAS; thread 1 pops that
   very block, pops another, and frees the first back — restoring the
   same avail index with different successors. The tag must make thread
   0's CAS fail and retry (observable as a second visit to the pop-CAS
   label). *)
let aba_tag_defence () =
  let t1_done = ref false in
  let blocked_once = ref false in
  let pop_visits = ref 0 in
  let on_label ~tid l =
    if l = L.ma_pop_cas && tid = 0 then begin
      incr pop_visits;
      if not !blocked_once then begin
        blocked_once := true;
        Sim.Block_until (fun () -> !t1_done)
      end
      else Sim.Continue
    end
    else Sim.Continue
  in
  let s = sim ~cpus:2 ~on_label () in
  let t = As.create s (Cfg.make ~nheaps:1 ()) in
  let warm = ref 0 and a0 = ref 0 in
  let t1_addrs = ref [] in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           (* Warm the heap so thread 0's next malloc pops from the
              active superblock. *)
           warm := As.malloc t 8;
           a0 := As.malloc t 8);
         (fun _ ->
           while not !blocked_once do
             Sim_rt.yield (As.rt t)
           done;
           (* Reproduce A-B-A on the free list head. *)
           let x = As.malloc t 8 in
           let y = As.malloc t 8 in
           As.free t x;
           (* x is free again: thread 0's retried pop may legitimately
              return it. Only y remains live from this thread. *)
           t1_addrs := [ y ];
           t1_done := true);
       |]);
  Alcotest.(check bool) "thread 0 retried its pop CAS" true (!pop_visits >= 2);
  (* No live block handed out twice. *)
  let live = !warm :: !a0 :: !t1_addrs in
  Alcotest.(check int) "no double allocation among live blocks"
    (List.length live)
    (List.length (List.sort_uniq compare live));
  As.check_invariants t

(* Fig. 5's ABA argument across descriptor reuse: a retired descriptor
   keeps its anchor tag, and MallocFromNewSB installs tag + 1 on it, so
   a CAS held over from one life of the descriptor can never succeed on
   the next. Churn one size class under the default Hazard pool (scan
   threshold 1, so retired descriptors come back quickly) and read the
   tag each new superblock is installed with. A malloc that carved a
   superblock (single thread: no lost install race) leaves the new
   descriptor Active with the install tag untouched. *)
let tag_increases_across_descriptor_lives () =
  let t = A.create () (Cfg.make ~nheaps:1 ~sbsize:4096 ~desc_scan_threshold:1 ()) in
  let classes = A.size_classes t in
  let sc = Option.get (Mm_mem.Size_class.class_of_request classes 8) in
  let sb_allocs () = (Store.os_stats (A.store t)).Store.sb_allocs in
  let install_tag = Hashtbl.create 8 in
  let lives = ref 0 in
  let malloc () =
    let carved = sb_allocs () in
    let a = A.malloc t 8 in
    if sb_allocs () > carved then begin
      let d, _ = Option.get (A.heap_active_desc t ~sc ~heap:0) in
      let anchor = Real_rt.Atomic.get d.D.anchor in
      Alcotest.(check bool) "fresh superblock is active" true
        (Anchor.state anchor = Anchor.Active);
      let tag = Anchor.tag anchor in
      (match Hashtbl.find_opt install_tag d.D.id with
      | Some prev when tag <= prev ->
          Alcotest.failf "descriptor %d reinstalled with tag %d <= %d" d.D.id
            tag prev
      | Some _ -> incr lives
      | None -> ());
      Hashtbl.replace install_tag d.D.id tag
    end;
    a
  in
  let n = 3 * Mm_mem.Size_class.blocks_per_superblock classes sc in
  for _ = 1 to 20 do
    let blocks = Array.init n (fun _ -> malloc ()) in
    Array.iter (A.free t) blocks
  done;
  A.check_invariants t;
  Alcotest.(check bool) "descriptors were recycled" true (!lives >= 10)

(* ---------------- invariant checker self-test ---------------- *)

let checker_detects_prefix_corruption () =
  let t = A.create () small_cfg in
  let a = A.malloc t 8 in
  Store.write_word (A.store t) (a - 8) (Mm_mem.Block_prefix.small ~desc_id:77);
  Alcotest.(check bool) "corrupt prefix detected" true
    (match A.check_invariants t with
    | _ -> false
    | exception Failure _ -> true)

let checker_detects_freelist_corruption () =
  let t = A.create () small_cfg in
  let a = A.malloc t 8 in
  let b = A.malloc t 8 in
  A.free t a;
  A.free t b;
  (* b is the free-list head; smash its next link out of range. *)
  Store.write_word (A.store t) (b - 8) 4095;
  Alcotest.(check bool) "corrupt free list detected" true
    (match A.check_invariants t with
    | _ -> false
    | exception Failure _ -> true)

(* ---------------- config variations ---------------- *)

let config_matrix () =
  List.iter
    (fun cfg ->
      let t = A.create () cfg in
      let addrs = Array.init 400 (fun i -> A.malloc t (1 + (i mod 200))) in
      Alcotest.(check int) "distinct" 400
        (List.length (List.sort_uniq compare (Array.to_list addrs)));
      Array.iter (A.free t) addrs;
      A.check_invariants t)
    [
      Cfg.make ~sbsize:4096 ();
      Cfg.make ~sbsize:65536 ();
      Cfg.make ~partial_policy:Cfg.Lifo ();
      Cfg.make ~desc_pool:Cfg.Tagged ();
      Cfg.make ~hyperblocks:true ();
      Cfg.make ~nheaps:1 ();
      Cfg.make ~nheaps:32 ();
      Cfg.make ~maxcredits:2 ();
    ]

let uniproc_concurrent () =
  (* nheaps=1 under 4 simulated threads: everything contends on one
     heap and must still be correct. *)
  for seed = 1 to 5 do
    let s = sim ~cpus:4 ~seed () in
    let t = As.create s (Cfg.make ~nheaps:1 ()) in
    let body tid =
      let rng = Prng.create tid in
      let slots = Array.make 16 0 in
      for _ = 1 to 300 do
        let i = Prng.int rng 16 in
        if slots.(i) <> 0 then begin
          As.free t slots.(i);
          slots.(i) <- 0
        end
        else slots.(i) <- As.malloc t (Prng.int_in rng 1 100)
      done;
      Array.iter (fun a -> if a <> 0 then As.free t a) slots
    in
    ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
    As.check_invariants t
  done

let introspection () =
  let t = A.create () small_cfg in
  Alcotest.(check bool) "no active before first malloc" true
    (A.heap_active_desc t ~sc:0 ~heap:0 = None);
  let a = A.malloc t 8 in
  Alcotest.(check bool) "active after malloc" true
    (A.heap_active_desc t ~sc:0 ~heap:0 <> None);
  Alcotest.(check int) "nheaps honours config" 1 (A.nheaps t);
  Alcotest.(check bool) "pool reachable" true (Pool.available (A.desc_pool t) >= 0);
  A.free t a

(* Region-table exhaustion fails cleanly. Fill a small region table
   with 8-byte mallocs until one raises [Failure]; from then on every
   malloc must fail without leaking. Mapped bytes stay exactly the live
   regions' superblocks: a failed mmap gives back its bytes and the
   region ids it had installed. Every live descriptor is in the pool or
   owns a live region: a failed carve returns the descriptor it took,
   and a descriptor batch that runs out of table slots part-way
   discards what it installed. Both free-list modes, since each carves
   its own way, and hyperblocks, whose 1 MiB mapping of 256 superblocks
   runs out of ids part-way (300 slots hold one). Where the descriptor
   table is full too, the pool's size does not move at all; with
   hyperblocks the table has room, and the hazard-pointer pool, which
   reuses a retired descriptor only after 128 retirements, stocks a
   fresh batch once its free list runs dry. *)
let region_table_exhaustion () =
  let module Space = Mm_mem.Space in
  let sbsize = 4096 in
  List.iter
    (fun (what, capacity, free_lists, hyperblocks, expect_live) ->
      let t =
        A.create ()
          (Cfg.make ~nheaps:1 ~sbsize ~store_capacity:capacity ~free_lists
             ~hyperblocks ())
      in
      let store = A.store t in
      let malloc_fails () =
        match A.malloc t 8 with _ -> false | exception Failure _ -> true
      in
      while not (malloc_fails ()) do
        ()
      done;
      let state () =
        ( (Space.read (Store.space store)).Mm_mem.Space.mapped,
          Store.live_regions store,
          Pool.available (A.desc_pool t) )
      in
      let check_no_leak when_ (mapped, live, available) =
        Alcotest.(check int)
          (Printf.sprintf "%s, %s: mapped = live regions x sbsize" what when_)
          (live * sbsize) mapped;
        Alcotest.(check int)
          (Printf.sprintf "%s, %s: live descriptors = pool + live regions"
             what when_)
          (available + live)
          (D.live_count (A.descriptor_table t))
      in
      let ((mapped, live, available) as full) = state () in
      check_no_leak "full" full;
      Alcotest.(check int) (what ^ ": live regions") expect_live live;
      for _ = 1 to 100 do
        Alcotest.(check bool) (what ^ ": malloc fails once full") true
          (malloc_fails ())
      done;
      let ((mapped', live', available') as after) = state () in
      check_no_leak "after 100 failed mallocs" after;
      Alcotest.(check (pair int int))
        (what ^ ": 100 failed mallocs leave mapped and regions alone")
        (mapped, live) (mapped', live');
      if not hyperblocks then
        Alcotest.(check int)
          (what ^ ": 100 failed mallocs leave the pool alone")
          available available';
      A.check_invariants t)
    [
      ("anchor", 40, `Anchor, false, 39);
      ("owner-biased", 40, `Owner_biased, false, 39);
      ("hyperblocks", 300, `Anchor, true, 256);
    ]

(* One descriptor batch (64 ids) must fit the 2 x store_capacity table
   with slot 0 reserved: 32 is rejected up front, 33 serves a malloc. *)
let store_capacity_bound () =
  let cfg store_capacity = Cfg.make ~nheaps:1 ~store_capacity () in
  Alcotest.(check bool) "store_capacity 32 rejected" true
    (match A.create () (cfg 32) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let t = A.create () (cfg 33) in
  A.free t (A.malloc t 8);
  A.check_invariants t

let wild_free_guard () =
  let t = A.create () small_cfg in
  let a = A.malloc t 8 in
  (* Interior pointer: not a block boundary. *)
  Alcotest.(check bool) "interior pointer rejected" true
    (match A.free t (a + 4) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  A.free t a;
  A.check_invariants t

(* A FULL superblock is in no structure, so a batch that returns all of
   its blocks at once must release it itself: unmap the superblock and
   retire the descriptor, instead of leaving it EMPTY where nothing will
   ever find it. The largest class of a 4 KiB superblock has 8 blocks,
   one flush batch. *)
let flush_empties_full_superblock () =
  let t = A.create () small_cfg in
  let classes = A.size_classes t in
  let size = Mm_mem.Size_class.large_threshold classes in
  let sc = Option.get (Mm_mem.Size_class.class_of_request classes size) in
  let blocks =
    List.init (Mm_mem.Size_class.blocks_per_superblock classes sc) (fun _ ->
        A.malloc t size)
  in
  let desc =
    D.get (A.descriptor_table t)
      (Mm_mem.Block_prefix.desc_id
         (Store.read_word (A.store t)
            (List.hd blocks - Mm_mem.Block_prefix.prefix_bytes)))
  in
  let sb_frees () = (Store.os_stats (A.store t)).Store.sb_frees in
  let frees0 = sb_frees () in
  let avail0 = Pool.available (A.desc_pool t) in
  A.flush_batch t blocks;
  A.check_invariants t;
  Alcotest.(check int) "the emptied superblock is released" (frees0 + 1)
    (sb_frees ());
  Alcotest.(check int) "its descriptor is retired" (avail0 + 1)
    (Pool.available (A.desc_pool t));
  Alcotest.(check bool) "the descriptor rests EMPTY" true
    (Anchor.state (Real_rt.Atomic.get desc.D.anchor) = Anchor.Empty)

let multi_kill_fuzz () =
  (* Kill several threads at random labelled points (seeded), across
     schedules: survivors always finish. *)
  for seed = 1 to 8 do
    let rng = Prng.create (seed * 7) in
    let to_kill = 1 + Prng.int rng 2 in
    let killed = ref 0 in
    let on_label ~tid:_ _ =
      if !killed < to_kill && Prng.int rng 400 = 0 then begin
        incr killed;
        Sim.Kill
      end
      else Sim.Continue
    in
    let s = sim ~cpus:4 ~seed ~max_cycles:50_000_000_000 ~on_label () in
    let t = As.create s probe_kill_cfg in
    let completed = ref 0 in
    let body tid =
      let rng = Prng.create tid in
      let burst = Array.make 200 0 in
      for _ = 1 to 3 do
        for i = 0 to 199 do
          burst.(i) <- As.malloc t 8
        done;
        Prng.shuffle rng burst;
        Array.iter (As.free t) burst
      done;
      incr completed
    in
    let r = Sim.run s (Array.init 4 (fun i _ -> body i)) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: completions + kills = threads" seed)
      4
      (!completed + r.Sim.counters.Sim.killed)
  done

let cases =
  [
    case "superblock state machine" fill_superblock;
    case "wild free rejected" wild_free_guard;
    case "region-table exhaustion fails cleanly" region_table_exhaustion;
    case "store_capacity bound" store_capacity_bound;
    case "flush emptying a FULL superblock releases it"
      flush_empties_full_superblock;
    case "multi-kill fuzz (sim x8)" multi_kill_fuzz;
    case "malloc-from-partial path" malloc_from_partial_path;
    case "credits bounds" credits_bounds;
    case "maxcredits=1" maxcredits_one;
    case "op counts" op_counts;
    case "forced UpdateActive credit return" ua_return_credits_path;
    case "forced new-superblock race" mnsb_race_path;
    case "ABA defence via anchor tag" aba_tag_defence;
    case "anchor tag strictly increases across descriptor lives"
      tag_increases_across_descriptor_lives;
    case "checker detects prefix corruption" checker_detects_prefix_corruption;
    case "checker detects freelist corruption"
      checker_detects_freelist_corruption;
    case "config matrix" config_matrix;
    case "uniproc heap under contention (sim x5)" uniproc_concurrent;
    case "introspection" introspection;
  ]
