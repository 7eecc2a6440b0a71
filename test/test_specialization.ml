(* Specialization equivalence (DESIGN.md §18): compiling the allocator
   stack once per runtime (first as functors over RUNTIME, now as two
   copies of each body) must not perturb the simulated runtime by a
   single scheduling decision.

   These regressions pin that down:

   - golden sim traces: a seeded mixed malloc/free workload's address
     stream is reduced to a checksum and compared against values
     captured on the pre-functorization value-level runtime (commit
     54a1a6a, where every [Rt.Atomic] op dispatched on the [Rt.t]
     value). Bit-identical schedules mean bit-identical addresses mean
     equal checksums — across 1, 4 and 8 simulated CPUs. The one-CPU
     workload run from one domain on the real copy gives the same
     checksum, so both copies bind the same sibling modules.

   - explorer stability: bounded-exhaustive exploration of the lf_alloc
     check target is a pure function of (target, threads, bound,
     budget); two runs must visit the same number of executions and
     find nothing, so the explorer's schedule enumeration is unchanged
     over the sim copy of the allocator.

   - cached and owner-biased schedules: the traced 16-thread threadtest
     (one heap, seed 1) of "new-cached" and "new-ob" keeps its event
     count and its per-label CAS ok/fail counts. The values were
     captured before the block cache's batched refill/flush moved onto
     arrays; the move changed no simulated event. The threadtest
     "new-ob" run never leaves its owners' private lists, so the larson
     run of "new-ob" is pinned beside it: its slot handoffs free into
     owned superblocks (pub.push) and into a handed-off one (free.cas,
     the FULL->PARTIAL republish and an acquirer's ob.freeze).

   The striped-census == obs-census equality half of the equivalence
   claim lives in test_obs.ml (counters-match-census); the real copy's
   conformance coverage is the `Real rows of
   test_alloc_conformance.ml. *)

open Mm_runtime
module As = Mm_core_sim.Lf_alloc
module Cfg = Mm_mem.Alloc_config
module E = Mm_check.Explore
module T = Mm_check.Target
module Traced = Mm_harness.Traced
module Agg = Mm_obs.Agg
open Util

(* The exact workload the golden values were captured with: per-thread
   seeded mix of mallocs (sizes 1..2500, spanning small classes and the
   large path) and frees over 24 slots, checksummed in allocation
   order. Any change here invalidates the goldens — re-capture them on
   the old runtime before touching it. *)
let mixed_body ~malloc ~free acc tid =
  let rng = Prng.create (tid + 11) in
  let slots = Array.make 24 0 in
  for _ = 1 to 400 do
    let i = Prng.int rng 24 in
    if slots.(i) <> 0 then begin
      free slots.(i);
      slots.(i) <- 0
    end
    else begin
      let a = malloc (Prng.int_in rng 1 2_500) in
      slots.(i) <- a;
      acc.(tid) <- (acc.(tid) * 1_000_003) + a
    end
  done;
  Array.iter (fun a -> if a <> 0 then free a) slots

let fold_checksum acc =
  Array.fold_left (fun h a -> (h * 31) + (a land max_int)) 0 acc

let checksum ~cfg ~cpus ~seed =
  let s = Sim.create ~cpus ~seed ~max_cycles:50_000_000_000 () in
  let t = As.create s cfg in
  let acc = Array.make cpus 0 in
  let body tid = mixed_body ~malloc:(As.malloc t) ~free:(As.free t) acc tid in
  ignore (Sim.run s (Array.init cpus (fun i _ -> body i)));
  fold_checksum acc

let goldens =
  [
    (1, 1, 1035582064610360096);
    (4, 7, -310638667675535616);
    (8, 42, -2356413153057079624);
  ]

let sim_traces_bit_identical () =
  List.iter
    (fun (cpus, seed, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "cpus=%d seed=%d trace checksum" cpus seed)
        expected
        (checksum ~cfg:(Cfg.make ()) ~cpus ~seed))
    goldens

(* The two copies are one source compiled against two runtimes, so a
   single thread's address stream cannot depend on the copy. A body
   that resolves a sibling module to the other copy's library breaks
   this before anything else. *)
let real_copy_matches_sim () =
  let t = Mm_core.Lf_alloc.create () (Cfg.make ()) in
  let acc = Array.make 1 0 in
  let body tid =
    mixed_body ~malloc:(Mm_core.Lf_alloc.malloc t)
      ~free:(Mm_core.Lf_alloc.free t) acc tid
  in
  ignore (Real_rt.parallel_run () [| body |]);
  Mm_core.Lf_alloc.check_invariants t;
  (* the cpus=1, seed=1 entry of [goldens] *)
  Alcotest.(check int) "cpus=1 seed=1 checksum on the real copy"
    1035582064610360096 (fold_checksum acc)

let explorer_schedules_stable () =
  let go () = E.exhaustive T.lf_alloc ~threads:2 ~bound:2 ~budget:4_000 in
  let a = go () and b = go () in
  (match (a.E.finding, b.E.finding) with
  | None, None -> ()
  | Some f, _ | _, Some f ->
      Alcotest.failf "lf_alloc target violation: %s" f.E.error);
  Alcotest.(check int) "same executions both runs" a.E.executions
    b.E.executions;
  Alcotest.(check bool) "explored at least one schedule" true
    (a.E.executions > 0);
  Alcotest.(check bool) "same completion status" a.E.complete b.E.complete

(* (allocator, workload, recorded events, (label, CAS ok, CAS fail) for
   every label that issued a CAS), as [bin/trace.exe report W --threads
   16 --heaps 1 --allocator A] prints them. *)
let schedule_pins =
  [
    ( "new-cached",
      "threadtest",
      61009,
      [
        ("bc.flush_cas", 3540, 600);
        ("bc.pop_cas", 1824, 4611);
        ("bc.reserve_cas", 1824, 629);
        ("desc.alloc", 40, 4);
        ("desc.refill", 2, 15);
        ("free.put_partial", 798, 106);
        ("hgp.slot_cas", 334, 152);
        ("ma.pop_cas", 97, 9);
        ("ma.read_active", 97, 50);
        ("mnsb.install", 8, 26);
        ("mp.pop_cas", 791, 26);
        ("mp.reserve_cas", 791, 8);
        ("msq.deq_cas", 457, 316);
        ("msq.deq_help", 0, 1);
        ("msq.enq_cas", 926, 10);
        ("msq.enq_swing", 0, 29);
        ("ts.pop_cas", 26, 1);
        ("ts.push_cas", 986, 2584);
        ("ua.credits_cas", 778, 14);
        ("ua.install", 467, 778);
      ] );
    ( "new-ob",
      "threadtest",
      3598,
      [
        ("desc.alloc", 30, 0);
        ("desc.refill", 2, 15);
        ("ts.push_cas", 960, 2559);
      ] );
  ]

let larson_ob_pin =
  [
    ( "new-ob",
      "larson",
      5387,
      [
        ("desc.alloc", 156, 53);
        ("desc.refill", 4, 13);
        ("free.cas", 2, 5);
        ("free.put_partial", 1, 0);
        ("hgp.slot_cas", 1, 0);
        ("ob.freeze", 1, 0);
        ("pub.claim", 3, 0);
        ("pub.push", 1918, 245);
        ("ts.pop_cas", 50, 202);
        ("ts.push_cas", 832, 1738);
      ] );
  ]

let schedules_pinned pins () =
  List.iter
    (fun (allocator, name, events, labels) ->
      let workload = Option.get (Traced.find_workload name) in
      let c =
        Traced.capture ~allocator ~nheaps:1 ~name ~threads:16 ~seed:1 workload
      in
      let agg = Mm_obs.Trace_file.agg c.Traced.trace in
      let what = allocator ^ " " ^ name in
      Alcotest.(check int) (what ^ ": events") events agg.Agg.total;
      Alcotest.(check (list (triple string int int)))
        (what ^ ": per-label CAS ok/fail")
        labels
        (List.filter_map
           (fun (s : Agg.site) ->
             if s.Agg.cas_ok + s.Agg.cas_fail = 0 then None
             else Some (s.Agg.label, s.Agg.cas_ok, s.Agg.cas_fail))
           agg.Agg.sites))
    pins

let cases =
  [
    case "sim traces bit-identical to the value-level runtime"
      sim_traces_bit_identical;
    case "real copy reproduces the sim copy's checksum" real_copy_matches_sim;
    case "explorer schedule enumeration is stable" explorer_schedules_stable;
    case "new-cached and new-ob threadtest schedules pinned"
      (schedules_pinned schedule_pins);
    case "new-ob larson schedule pinned" (schedules_pinned larson_ob_pin);
  ]
