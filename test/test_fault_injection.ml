(* The lock-freedom evidence (paper §1, §3): at EVERY labelled step of
   malloc/free a thread may be delayed indefinitely or killed outright,
   and all other threads must still complete their operations.

   Three families:
   - coverage: the probe workload actually reaches every label;
   - pause: a thread blocks at the label until everyone else is done —
     if that thread's progress were required (as with a held lock), the
     run would deadlock;
   - kill: the thread dies at the label; survivors complete and the
     allocator remains usable afterwards.

   The probe runs four phases per thread: the bare allocator (reaching
   every backend label), the block-cache frontend (reaching the batched
   bc.* refill/flush labels, DESIGN.md §13), a reuse-in-place
   descriptor pool driven directly with batch_size 1 so the spill/steal
   hand-off labels fire (desc.spill / desc.steal, DESIGN.md §17), and a
   SHARED owner-biased allocator whose threads hand blocks to their
   neighbour so remote frees push public lists (pub.push), handoffs
   and owner refills claim them (pub.claim), and acquirers freeze
   handed-off superblocks that frees republished (ob.freeze, DESIGN.md
   §19).

   Plus schedule fuzzing: many seeds of a mixed workload with full
   invariant checks. *)

open Mm_runtime
module A = Mm_core_sim.Lf_alloc
module Ar = Mm_core.Lf_alloc
module Bc = Mm_core_sim.Block_cache
module D = Mm_core_sim.Descriptor
module L = Mm_core.Labels
module Cfg = Mm_mem.Alloc_config
open Util

(* A configuration and workload designed to reach every label:
   maxcredits=1 exercises UpdateActive on nearly every malloc; one heap
   maximizes interference; tiny superblocks make FULL / EMPTY cycles
   frequent; scan threshold 1 makes every descriptor retirement run the
   hazard-pointer scan, so descriptor reuse ([desc.push]) fires within
   the probe run (retirement lists are per-thread and each thread only
   retires a few descriptors). *)
let probe_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:1 ~desc_scan_threshold:1 ()

(* The cached phase needs maxcredits > 1, or every batched refill
   degenerates to a single-block reservation and the bc.pop walk never
   covers more than one link; a small cache with batch 2 makes overflow
   flushes (bc.flush_cas) fire within one drain. *)
let cached_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:8 ~desc_scan_threshold:1
    ~cache:true ~cache_blocks:4 ~cache_batch:2 ()

let probe_body ~malloc ~free n tid =
  let rng = Prng.create (tid + 31) in
  let burst = Array.make 300 0 in
  for _ = 1 to n do
    (* Burst fill: drives superblocks FULL, spills to new superblocks. *)
    for i = 0 to Array.length burst - 1 do
      burst.(i) <- malloc 8
    done;
    (* Random-order drain: drives PARTIAL and EMPTY transitions. *)
    Prng.shuffle rng burst;
    Array.iter free burst
  done

(* The owner-biased phase shares ONE allocator between all threads:
   one heap, tiny superblocks, so a 300-block burst outgrows a
   superblock and forces an owner handoff (pub.claim), frees into the
   handed-off superblock republish it on its anchor (free.cas) for the
   next burst to acquire (ob.freeze), and the blocks each thread mails
   to its neighbour come back as remote frees (pub.push) that owner
   refills claim (pub.claim). *)
let ob_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:1 ~desc_scan_threshold:1
    ~free_lists:`Owner_biased ()

let threads = 4

(* Mailbox ring: cell [i] is written only by thread [i-1] and drained
   only by thread [i]. Plain list operations run without a simulation
   point in between, so producer cons and consumer take are each
   atomic under the simulated scheduler; draining never waits, so a
   paused or killed neighbour just leaves its slice unconsumed
   (leaked, not corrupted). *)
let probe_ob t mailbox n tid =
  let next = (tid + 1) mod threads in
  let burst = Array.make 300 0 in
  for _ = 1 to n do
    for i = 0 to Array.length burst - 1 do
      burst.(i) <- A.malloc t 8
    done;
    (* Mail the head of the burst to the neighbour, free the rest
       locally (private-LIFO pushes, or anchor pushes for blocks of
       an already handed-off superblock). *)
    for i = 0 to 49 do
      mailbox.(next) <- burst.(i) :: mailbox.(next)
    done;
    for i = 50 to Array.length burst - 1 do
      A.free t burst.(i)
    done;
    (* Non-blocking drain: every one of these is a remote free. *)
    let mine = mailbox.(tid) in
    mailbox.(tid) <- [];
    List.iter (A.free t) mine
  done

(* The reuse-pool phase drives a Reuse descriptor pool directly with
   batch_size 1: the private LIFO holds one descriptor, so every
   second retire spills to the shared stack (desc.spill) and a drained
   LIFO steals a spilled descriptor back (desc.steal). *)
module P = Mm_core_sim.Desc_pool

let probe_reuse pool n =
  for _ = 1 to n do
    let a = P.alloc pool in
    let b = P.alloc pool in
    P.retire pool a;
    P.retire pool b;
    (* a comes back off the private LIFO; the next alloc must steal *)
    let c = P.alloc pool in
    let d = P.alloc pool in
    P.retire pool c;
    P.retire pool d
  done

(* Three allocators and a reuse pool on one runtime, and a body running
   the plain phase, the cached phase, the reuse-pool phase, then the
   shared owner-biased phase — together they reach every label in
   L.all. *)
let probe_pair rt =
  let t = A.create rt probe_cfg in
  let tc = Bc.create rt cached_cfg in
  let tob = A.create rt ob_cfg in
  let mailbox = Array.make threads [] in
  let table = D.create_table rt ~capacity:256 in
  let pool = P.create rt table ~kind:Cfg.Reuse ~batch_size:1 () in
  let body n tid =
    probe_body ~malloc:(A.malloc t) ~free:(A.free t) n tid;
    probe_body ~malloc:(Bc.malloc tc) ~free:(Bc.free tc) n tid;
    probe_reuse pool n;
    probe_ob tob mailbox n tid
  in
  (t, tc, tob, pool, body)

let coverage () =
  let hits = Hashtbl.create 32 in
  let on_label ~tid:_ l =
    Hashtbl.replace hits l ();
    Sim.Continue
  in
  let s = sim ~cpus:threads ~max_cycles:50_000_000_000 ~on_label () in
  let t, tc, tob, _pool, body = probe_pair s in
  ignore (Sim.run s (Array.init threads (fun _ -> body 4)));
  List.iter
    (fun l ->
      if not (Hashtbl.mem hits l) then
        Alcotest.failf "probe workload never reaches label %s" l)
    L.all;
  A.check_invariants t;
  Bc.check_invariants tc;
  A.check_invariants tob

let pause_at label () =
  (* The first thread to reach [label] parks there until every other
     thread has finished its whole workload. *)
  let victim = ref (-1) in
  let finished = Array.make threads false in
  let others_done () =
    let ok = ref true in
    Array.iteri
      (fun i f -> if i <> !victim && not f then ok := false)
      finished;
    !ok
  in
  let on_label ~tid l =
    if l = label && !victim = -1 then begin
      victim := tid;
      Sim.Block_until others_done
    end
    else Sim.Continue
  in
  let s = sim ~cpus:threads ~max_cycles:50_000_000_000 ~on_label () in
  let t, tc, tob, _pool, pbody = probe_pair s in
  let body tid =
    pbody 3 tid;
    finished.(tid) <- true
  in
  ignore (Sim.run s (Array.init threads (fun i _ -> body i)));
  Alcotest.(check bool) ("label reached: " ^ label) true (!victim >= 0);
  Array.iteri
    (fun i f ->
      if not f then Alcotest.failf "thread %d did not finish" i)
    finished;
  (* The victim resumed and completed too, so the heap is quiescent and
     fully consistent (cached blocks remain allocated by design). *)
  A.check_invariants t;
  Bc.check_invariants tc;
  A.check_invariants tob

let kill_at label () =
  let killed = ref (-1) in
  let on_label ~tid l =
    if l = label && !killed = -1 then begin
      killed := tid;
      Sim.Kill
    end
    else Sim.Continue
  in
  let s = sim ~cpus:threads ~max_cycles:50_000_000_000 ~on_label () in
  let t, tc, tob, pool, pbody = probe_pair s in
  let completed = Array.make threads false in
  let body tid =
    pbody 3 tid;
    completed.(tid) <- true
  in
  let r = Sim.run s (Array.init threads (fun i _ -> body i)) in
  Alcotest.(check bool) ("kill fired: " ^ label) true (!killed >= 0);
  Alcotest.(check int) "one thread killed" 1 r.Sim.counters.Sim.killed;
  Array.iteri
    (fun i f ->
      if i <> !killed && not f then
        Alcotest.failf "survivor %d did not finish" i)
    completed;
  (* Both allocators remain functional after the kill: run a fresh wave
     (the killed thread's reservations and cached blocks are leaked,
     not corrupted — exclusivity holds, conservation does not). *)
  let s2_ok = ref false in
  (* Reuse the same sim instance for a follow-up run. *)
  let r2 =
    Sim.run s
      [|
        (fun _ ->
          let addrs = Array.init 200 (fun _ -> A.malloc t 8) in
          Array.iter (A.free t) addrs;
          let addrs = Array.init 200 (fun _ -> Bc.malloc tc 8) in
          Array.iter (Bc.free tc) addrs;
          let addrs = Array.init 200 (fun _ -> A.malloc tob 8) in
          Array.iter (A.free tob) addrs;
          probe_reuse pool 2;
          s2_ok := true);
      |]
  in
  ignore r2;
  Alcotest.(check bool) "allocator usable after kill" true !s2_ok

let fuzz_invariants () =
  for seed = 1 to 20 do
    let s = sim ~cpus:4 ~seed ~max_cycles:50_000_000_000 () in
    let t = A.create s probe_cfg in
    ignore
      (Sim.run s
         (Array.init 4 (fun _ ->
              probe_body ~malloc:(A.malloc t) ~free:(A.free t) 2)));
    (try A.check_invariants t
     with Failure msg -> Alcotest.failf "seed %d: %s" seed msg);
    let m, f = A.op_counts t in
    Alcotest.(check int) (Printf.sprintf "seed %d conservation" seed) m f
  done

let fuzz_ob_invariants () =
  (* The owner-biased mode under many schedules: the full checker
     (including the private/public list walks and owned-slot
     cross-references) plus conservation once the surviving mailbox
     slices are drained. *)
  for seed = 1 to 15 do
    let s = sim ~cpus:threads ~seed ~max_cycles:50_000_000_000 () in
    let t = A.create s ob_cfg in
    let mailbox = Array.make threads [] in
    ignore
      (Sim.run s (Array.init threads (fun i _ -> probe_ob t mailbox 2 i)));
    ignore
      (Sim.run s
         [|
           (fun _ ->
             Array.iteri
               (fun i mail ->
                 mailbox.(i) <- [];
                 List.iter (A.free t) mail)
               mailbox);
         |]);
    (try A.check_invariants t
     with Failure msg -> Alcotest.failf "seed %d: %s" seed msg);
    let m, f = A.op_counts t in
    Alcotest.(check int) (Printf.sprintf "seed %d conservation" seed) m f
  done

let fuzz_default_config () =
  (* Same fuzz with the paper-default configuration (many heaps, full
     credits, hazard pool) and mixed sizes. *)
  for seed = 1 to 10 do
    let s = sim ~cpus:8 ~seed ~max_cycles:50_000_000_000 () in
    let t = A.create s (Cfg.make ()) in
    let body tid =
      let rng = Prng.create (seed + (tid * 17)) in
      let slots = Array.make 48 0 in
      for _ = 1 to 500 do
        let i = Prng.int rng 48 in
        if slots.(i) <> 0 then begin
          A.free t slots.(i);
          slots.(i) <- 0
        end
        else slots.(i) <- A.malloc t (Prng.int_in rng 1 2_500)
      done;
      Array.iter (fun a -> if a <> 0 then A.free t a) slots
    in
    ignore (Sim.run s (Array.init 8 (fun i _ -> body i)));
    try A.check_invariants t
    with Failure msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let real_runtime_stress () =
  (* Domains on real hardware with the label hook injecting yields to
     widen race windows. *)
  Rt.real_label_hook := (fun _ -> if Random.int 50 = 0 then Domain.cpu_relax ());
  Fun.protect
    ~finally:(fun () -> Rt.real_label_hook := (fun _ -> ()))
    (fun () ->
      let t = Ar.create () probe_cfg in
      let body tid = probe_body ~malloc:(Ar.malloc t) ~free:(Ar.free t) 3 tid in
      ignore (Rt.parallel_run Rt.real (Array.init 4 (fun i _ -> body i)));
      Ar.check_invariants t;
      let m, f = Ar.op_counts t in
      Alcotest.(check int) "conservation" m f)

let cases =
  [ case "label coverage of probe workload" coverage ]
  @ List.map (fun l -> case ("pause at " ^ l) (pause_at l)) L.all
  @ List.map (fun l -> case ("kill at " ^ l) (kill_at l)) L.all
  @ [
      case "schedule fuzz, probe config (x20 seeds)" fuzz_invariants;
      case "schedule fuzz, owner-biased config (x15 seeds)" fuzz_ob_invariants;
      case "schedule fuzz, default config (x10 seeds)" fuzz_default_config;
      case "real-runtime stress with label noise" real_runtime_stress;
    ]
