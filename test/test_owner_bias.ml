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

   - owner-biased correctness under load: a shared one-heap allocator
     with cross-thread frees passes the full invariant checker
     (private/public list walks, owned-slot cross-references) and
     conservation, across several seeds;

   - a free into a handed-off superblock is the paper's Fig. 6 free:
     one anchor CAS (free.cas) that makes the superblock PARTIAL and
     republishes it, and no public-list traffic at all. *)

open Mm_runtime
module A = Mm_core.Lf_alloc.Make (Sim_rt)
module D = Mm_core.Descriptor.Make (Sim_rt)
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

let ob_invariants_under_load () =
  for seed = 1 to 8 do
    let s = sim ~cpus:4 ~seed ~max_cycles:50_000_000_000 () in
    let t = A.create s ob_cfg in
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

let cases =
  [
    case "anchor mode bit-identical to the goldens" anchor_mode_bit_identical;
    case "census registries partition the label sets" registry_complete;
    case "new-ob obs census == striped census" ob_counters_match_census;
    case "owner-biased invariants + conservation (x8 seeds)"
      ob_invariants_under_load;
    case "free into a handed-off superblock is one anchor CAS"
      handed_off_free_is_one_anchor_cas;
  ]
