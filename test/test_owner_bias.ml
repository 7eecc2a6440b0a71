(* Owner-biased private/public superblock free lists (DESIGN.md §19).

   Four regressions:

   - default-mode bit-identity: with [free_lists] explicitly [`Anchor]
     the allocator must replay the SAME golden sim-trace checksums as
     test_specialization.ml — the owner-biased machinery (the pub
     word, the owner/private fields, the mode dispatch) costs the
     paper-verbatim path nothing, not even one scheduling decision;

   - registry completeness: the census registries partition the label
     sets — every label is either a census site's member or a marker,
     for both [Mm_core.Labels] and [Mm_pages.Pg_labels] — so the
     derived censuses ([Lf_alloc.retry_counts], [Traced.core_sites])
     can never silently drop a site;

   - owner-biased census equality: the obs tracer's per-label failed-CAS
     aggregation agrees exactly with the allocator's own striped retry
     census under "new-ob", including the new pub.push/pub.claim rows
     (the same proof test_obs.ml gives for "new");

   - owner-biased correctness under load: a shared allocator with
     cross-thread frees, at one processor heap and at two, passes the
     full invariant checker (private/public list walks, owned-slot
     cross-references) and conservation, across several seeds, and
     so does a larson-shaped run on two real domains at two heaps;

   - heap-local partial lists: a heap reacquires the superblocks it
     republished before any other heap's, and takes a sibling's only
     once its own slot and list are empty, without carving;

   - a free into a handed-off superblock is the paper's Fig. 6 free:
     one anchor CAS (free.cas) that makes the superblock PARTIAL and
     republishes it, and no public-list traffic at all. *)

open Mm_runtime
module A = Mm_core_sim.Lf_alloc
module D = Mm_core_sim.Descriptor
module Store = Mm_mem_sim.Store
module Anchor = Mm_core.Anchor
module L = Mm_core.Labels
module Pg = Mm_pages.Pg_labels
module Cfg = Mm_mem.Alloc_config
module W = Mm_workloads
module Traced = Mm_harness.Traced
module Obs = Mm_obs
open Util

(* Same workload, same goldens as test_specialization.ml — here with
   the free-list mode spelled out, so a future default flip cannot
   silently retire the paper-verbatim regression. *)
let anchor_mode_bit_identical () =
  List.iter
    (fun (cpus, seed, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "cpus=%d seed=%d trace checksum" cpus seed)
        expected
        (Test_specialization.checksum
           ~cfg:(Cfg.make ~free_lists:`Anchor ())
           ~cpus ~seed))
    Test_specialization.goldens

let registry_complete () =
  let check_registry what (sites : (string * string list) list) markers all =
    let covered = List.concat_map snd sites @ markers in
    List.iter
      (fun l ->
        if not (List.mem l covered) then
          Alcotest.failf "%s: label %s in neither census_sites nor markers"
            what l)
      all;
    List.iter
      (fun l ->
        if not (List.mem l all) then
          Alcotest.failf "%s: registry lists unknown label %s" what l)
      covered;
    Alcotest.(check int)
      (what ^ ": sites+markers partition the label set")
      (List.length all) (List.length covered)
  in
  check_registry "core" L.census_sites L.census_markers L.all;
  check_registry "pages" Pg.census_sites Pg.census_markers Pg.all

(* Larson's slot handoff makes every round a mix of owner-local and
   remote frees, so the pub.push/pub.claim rows are live. *)
let small_larson inst ~threads =
  W.Larson.run inst ~threads
    { W.Larson.quick with W.Larson.slots_per_thread = 16; rounds = 400 }

let ob_counters_match_census () =
  let c =
    Traced.capture ~nheaps:1 ~allocator:"new-ob" ~name:"larson" ~threads:8
      ~seed:1 small_larson
  in
  let agg = Option.get c.Traced.metric.W.Metrics.obs in
  Alcotest.(check int) "nothing dropped" 0
    c.Traced.trace.Obs.Trace_file.dropped;
  List.iter2
    (fun (site, obs_n) (site', census_n) ->
      Alcotest.(check string) "site order" site' site;
      Alcotest.(check int) site census_n obs_n)
    (Traced.core_retry_counts agg)
    c.Traced.retry_counts;
  (* The mode's signature transitions actually happened. *)
  let transitions name =
    match Obs.Agg.site agg name with
    | Some s -> s.Obs.Agg.transitions
    | None -> 0
  in
  Alcotest.(check bool) "saw sb.new->owned" true
    (transitions "sb.new->owned" > 0)

let ob_cfg = Cfg.make ~nheaps:1 ~sbsize:4096 ~free_lists:`Owner_biased ()

(* Two processor heaps: thread [tid] allocates from heap [tid mod 2]. *)
let ob2_cfg = Cfg.make ~nheaps:2 ~sbsize:4096 ~free_lists:`Owner_biased ()

let ob_invariants_under_load cfg () =
  for seed = 1 to 8 do
    let s = sim ~cpus:4 ~seed ~max_cycles:50_000_000_000 () in
    let t = A.create s cfg in
    (* Per-thread slot churn plus a neighbour handoff slot: every
       round passes one block to the next thread, which frees it
       remotely (single-producer/single-consumer plain cells, as in
       the fault-injection probe). *)
    let mailbox = Array.make 4 0 in
    let body tid =
      let rng = Prng.create (seed + (tid * 13)) in
      let slots = Array.make 24 0 in
      for _ = 1 to 300 do
        let i = Prng.int rng 24 in
        if slots.(i) <> 0 then begin
          A.free t slots.(i);
          slots.(i) <- 0
        end
        else begin
          slots.(i) <- A.malloc t (Prng.int_in rng 1 1_000);
          let next = (tid + 1) mod 4 in
          if mailbox.(next) = 0 then begin
            mailbox.(next) <- slots.(i);
            slots.(i) <- 0
          end
        end;
        let incoming = mailbox.(tid) in
        if incoming <> 0 then begin
          mailbox.(tid) <- 0;
          A.free t incoming
        end
      done;
      Array.iter (fun a -> if a <> 0 then A.free t a) slots
    in
    ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
    (* Quiescent sweep of whatever the last rounds left in flight. *)
    ignore
      (Sim.run s
         [|
           (fun _ ->
             Array.iteri
               (fun i a ->
                 if a <> 0 then begin
                   mailbox.(i) <- 0;
                   A.free t a
                 end)
               mailbox);
         |]);
    (try A.check_invariants t
     with Failure msg -> Alcotest.failf "seed %d: %s" seed msg);
    let m, f = A.op_counts t in
    Alcotest.(check int) (Printf.sprintf "seed %d conservation" seed) m f
  done

(* One thread mallocs a whole superblock plus one block: the extra
   malloc finds the private list and the public list empty and hands
   the first superblock off. Freeing one of its blocks must then take
   exactly the labelled windows of Fig. 6's free — the anchor CAS and
   the FULL->PARTIAL republish — and leave the superblock PARTIAL in
   the heap's partial slot with that one block on its anchor. *)
let handed_off_free_is_one_anchor_cas () =
  let recording = ref false and seen = ref [] in
  let on_label ~tid:_ l =
    if !recording then seen := l :: !seen;
    Sim.Continue
  in
  let s = sim ~cpus:1 ~on_label () in
  let t = A.create s ob_cfg in
  let classes = A.size_classes t in
  let sc = Option.get (Mm_mem.Size_class.class_of_request classes 8) in
  let per_sb = Mm_mem.Size_class.blocks_per_superblock classes sc in
  let first = ref [||] in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           first := Array.init per_sb (fun _ -> A.malloc t 8);
           ignore (A.malloc t 8 : int);
           recording := true;
           A.free t !first.(0);
           recording := false);
       |]);
  Alcotest.(check (list string))
    "labels of the free"
    [ L.free_cas; L.free_put_partial ]
    (List.rev !seen);
  List.iter
    (fun (site, n) ->
      Alcotest.(check int) (site ^ " failed CASes") 0 n)
    (A.retry_counts t);
  match A.heap_partial_desc t ~sc ~heap:0 with
  | None -> Alcotest.fail "handed-off superblock not in the partial slot"
  | Some d ->
      let a = Sim_rt.Atomic.get d.D.anchor in
      Alcotest.(check bool)
        "slot holds the freed block's superblock" true
        (!first.(0) > d.D.sb && !first.(0) < d.D.sb + ob_cfg.Cfg.sbsize);
      Alcotest.(check string) "anchor state" "PARTIAL"
        (Anchor.state_to_string (Anchor.state a));
      Alcotest.(check int) "anchor count" 1 (Anchor.count a);
      A.check_invariants t

(* Thread [i] allocates from heap [i]. Each thread hands off full
   superblocks; then each republishes its own with one free each, heap
   1 first: heap 1 then holds E in its slot and D on its list, heap 0 C
   in its slot and A, B on its list. Heap 0 reacquires C, then A, its own,
   while D sits on heap 1's list (one class-wide FIFO, listed D first,
   would have handed heap 0 D). Heap 1 takes E, then D, and only then
   heap 0's B. No superblock is carved meanwhile. *)
let heap_local_partial_lists () =
  let s = sim ~cpus:2 () in
  let t = A.create s ob2_cfg in
  let classes = A.size_classes t in
  let sc = Option.get (Mm_mem.Size_class.class_of_request classes 8) in
  let per_sb = Mm_mem.Size_class.blocks_per_superblock classes sc in
  let on tid f =
    ignore (Sim.run s (Array.init 2 (fun i _ -> if i = tid then f ())))
  in
  let mallocs tid k =
    let ps = ref [||] in
    on tid (fun () -> ps := Array.init k (fun _ -> A.malloc t 8));
    !ps
  in
  (* The superblock of a live block, read off its prefix. *)
  let sb_of p =
    let prefix =
      Store.read_word (A.store t) (p - Mm_mem.Block_prefix.prefix_bytes)
    in
    (D.get (A.descriptor_table t) (Mm_mem.Block_prefix.desc_id prefix)).D.sb
  in
  (* [k] superblocks handed off full (one more is owned): the first
     block of each, and their bases. *)
  let hand_off tid k =
    let ps = mallocs tid ((k * per_sb) + 1) in
    let firsts = List.init k (fun j -> ps.(j * per_sb)) in
    (firsts, List.map sb_of firsts)
  in
  let republish tid firsts = on tid (fun () -> List.iter (A.free t) firsts) in
  let slot heap =
    Option.map (fun d -> d.D.sb) (A.heap_partial_desc t ~sc ~heap)
  in
  let listed heap =
    List.map
      (fun d -> d.D.sb)
      (Mm_core_sim.Partial_list.to_list (A.partial_list t ~sc ~heap))
  in
  let sbs = Alcotest.(list int) and sb_slot = Alcotest.(option int) in
  let firsts1, sbs1 = hand_off 1 2 in
  let firsts0, sbs0 = hand_off 0 3 in
  republish 1 firsts1;
  republish 0 firsts0;
  let d, e = match sbs1 with [ d; e ] -> (d, e) | _ -> assert false in
  let a, b, c = match sbs0 with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  Alcotest.check sb_slot "heap 1 slot" (Some e) (slot 1);
  Alcotest.check sbs "heap 1 list" [ d ] (listed 1);
  Alcotest.check sb_slot "heap 0 slot" (Some c) (slot 0);
  Alcotest.check sbs "heap 0 list" [ a; b ] (listed 0);
  let carved () = (Store.os_stats (A.store t)).Store.sb_allocs in
  let carved0 = carved () in
  (* Each thread's owned superblock has [per_sb - 1] blocks left; every
     malloc after those hands the current one off and acquires. *)
  let got tid k = Array.sub (mallocs tid (per_sb - 1 + k)) (per_sb - 1) k in
  Alcotest.check sbs "heap 0 reacquires its own slot, then its own list"
    [ c; a ]
    (List.map sb_of (Array.to_list (got 0 2)));
  Alcotest.check sbs "heap 1's list untouched" [ d ] (listed 1);
  Alcotest.check sbs "heap 1: own slot, own list, then heap 0's list"
    [ e; d; b ]
    (List.map sb_of (Array.to_list (got 1 3)));
  Alcotest.check sbs "heap 0's list drained" [] (listed 0);
  Alcotest.(check int) "no superblock carved" carved0 (carved ());
  A.check_invariants t

(* Larson's shape on two real domains at two processor heaps: each
   domain replaces random slots of its own with blocks of 16-80 bytes,
   and hands every eighth new block to the other domain through a
   one-cell mailbox, so frees cross heaps too. After the join the main
   domain frees what is left; the heap must check out and every malloc
   must have its free. *)
let two_domain_larson () =
  let module R = Mm_core.Lf_alloc in
  let t = R.create () ob2_cfg in
  let slots = 256 and steps = 40_000 in
  let mailbox = Array.init 2 (fun _ -> Atomic.make 0) in
  let live = Array.init 2 (fun _ -> Array.make slots 0) in
  let body me _ =
    let rng = Prng.create (me + 1) in
    let mine = live.(me) in
    for i = 0 to slots - 1 do
      mine.(i) <- R.malloc t (Prng.int_in rng 16 80)
    done;
    for step = 1 to steps do
      let i = Prng.int rng slots in
      R.free t mine.(i);
      mine.(i) <- R.malloc t (Prng.int_in rng 16 80);
      if step land 7 = 0 && Atomic.compare_and_set mailbox.(1 - me) 0 mine.(i)
      then mine.(i) <- R.malloc t (Prng.int_in rng 16 80);
      let incoming = Atomic.exchange mailbox.(me) 0 in
      if incoming <> 0 then R.free t incoming
    done
  in
  ignore (Real_rt.parallel_run () [| body 0; body 1 |]);
  Array.iter (Array.iter (R.free t)) live;
  Array.iter
    (fun box ->
      let p = Atomic.exchange box 0 in
      if p <> 0 then R.free t p)
    mailbox;
  R.check_invariants t;
  let m, f = R.op_counts t in
  Alcotest.(check int) "every malloc freed" m f

let cases =
  [
    case "anchor mode bit-identical to the goldens" anchor_mode_bit_identical;
    case "census registries partition the label sets" registry_complete;
    case "new-ob obs census == striped census" ob_counters_match_census;
    case "owner-biased invariants + conservation (x8 seeds)"
      (ob_invariants_under_load ob_cfg);
    case "owner-biased invariants at two heaps (x8 seeds)"
      (ob_invariants_under_load ob2_cfg);
    case "heap-local partial lists: own first, siblings last, no carve"
      heap_local_partial_lists;
    case "two real domains, larson-shaped, two heaps: invariants"
      two_domain_larson;
    case "free into a handed-off superblock is one anchor CAS"
      handed_off_free_is_one_anchor_cas;
  ]
