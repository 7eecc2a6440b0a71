(* The page manager (DESIGN.md §15): the span reservoir + lock-free
   buddy behind Alloc_config.page_manager.

   What is verified here:
   - buddy grants never overlap (per-page ownership under concurrent
     acquire/release), and single-threaded free + coalesce restores the
     whole span to its maximum order;
   - order-0 exhaustion of a span makes the reservoir reserve a fresh
     one instead of failing, and a drained reservoir coalesces back to
     whole-span extents;
   - page_manager:false is the paper-verbatim path: the default
     configuration keeps it off, the allocator carries no page-manager
     instance, and the off-path run is bit-identical regardless of the
     (ignored) span_pages value;
   - with the manager on, a seeded large-block churn maps at least 5x
     fewer large-path regions than the one-mmap-per-request path, and
     the buddy's internal-fragmentation accounting is conserved;
   - the explorer's per-page exclusivity oracle holds over the buddy
     target, and killing a thread inside any buddy.*/span.reserve
     window never lets an extent be handed out twice. *)

open Mm_runtime
module A = Mm_core_sim.Lf_alloc
module B = Mm_pages_sim.Buddy
module Pm = Mm_pages_sim.Page_manager
module Pg = Mm_pages.Pg_labels
module Cfg = Mm_mem.Alloc_config
module Scls = Mm_mem.Size_class

module Store = Mm_mem_sim.Store
module O = Mm_check.Oracle
module E = Mm_check.Explore
module T = Mm_check.Target
open Util

(* Concurrent acquire/release against per-page ownership: between an
   acquire returning an extent and its release, no page of it may be
   granted again. Host-side bookkeeping is atomic between labels, so
   the array needs no synchronization of its own. *)
let buddy_no_overlap () =
  let s = sim ~cpus:4 () in
  let rt = s in
  let b = B.create rt ~order:3 () in
  let owner = Array.make (B.pages b) (-1) in
  let body tid =
    let rng = Prng.create (17 + (tid * 7)) in
    for _ = 1 to 25 do
      let k = Prng.int rng 3 in
      match B.acquire b ~order:k with
      | None -> ()
      | Some page ->
          let n = 1 lsl k in
          for i = page to page + n - 1 do
            if owner.(i) >= 0 then
              Alcotest.failf
                "page %d granted to thread %d while thread %d holds it" i
                tid owner.(i);
            owner.(i) <- tid
          done;
          for i = page to page + n - 1 do
            owner.(i) <- -1
          done;
          B.release b ~page ~order:k
    done
  in
  ignore (Sim.run s (Array.init 4 (fun _ -> body)));
  B.check_invariants b;
  let free, busy = B.census b in
  Alcotest.(check int) "all pages free at quiescence" (B.pages b) free;
  Alcotest.(check int) "no busy pages at quiescence" 0 busy

(* Single-threaded release coalesces maximally: drain the span at
   order 0, free everything, and the whole span must again be grantable
   as one maximum-order extent. *)
let coalesce_restores_max_order () =
  let s = sim ~cpus:1 () in
  let rt = s in
  let b = B.create rt ~order:3 () in
  let body _ =
    let grants =
      List.init (B.pages b) (fun i ->
          match B.acquire b ~order:0 with
          | Some p -> p
          | None -> Alcotest.failf "order-0 grant %d refused" i)
    in
    Alcotest.(check int) "span drained" (B.pages b)
      (List.length (List.sort_uniq compare grants));
    Alcotest.(check (option int)) "exhausted span refuses further grants"
      None (B.acquire b ~order:0);
    List.iter (fun p -> B.release b ~page:p ~order:0) grants;
    (match B.acquire b ~order:(B.order b) with
    | Some 0 -> B.release b ~page:0 ~order:(B.order b)
    | Some p -> Alcotest.failf "maximum-order extent at page %d, not 0" p
    | None ->
        Alcotest.fail
          "free + coalesce did not restore the maximum order");
    B.check_invariants b
  in
  ignore (Sim.run s [| body |])

(* Order-0 exhaustion at the reservoir level: once every page of the
   first span is granted, the next request reserves a fresh span rather
   than failing; draining everything coalesces both spans back to
   whole-span extents. *)
let exhaustion_reserves_fresh_span () =
  let s = sim ~cpus:1 () in
  let rt = s in
  let store = Store.create rt ~capacity:128 ~sbsize:4096 () in
  let pm = Pm.create rt store ~max_spans:4 ~span_pages:4 () in
  let body _ =
    let grab () =
      match Pm.alloc pm ~len:Store.page with
      | Some a -> a
      | None -> Alcotest.fail "reservoir refused a single page"
    in
    let first = List.init 4 (fun _ -> grab ()) in
    Alcotest.(check int) "one span serves the first four pages" 1
      (Pm.spans pm);
    let fifth = grab () in
    Alcotest.(check int) "exhaustion reserved a fresh span" 2 (Pm.spans pm);
    List.iter
      (fun a ->
        Alcotest.(check bool) "granted extents are owned" true (Pm.owns pm a);
        Alcotest.(check bool) "free finds the span" true
          (Pm.free pm a ~len:Store.page))
      (fifth :: first);
    Pm.check_invariants pm;
    (* Both spans coalesced back: two whole-span grants succeed. *)
    let whole = 4 * Store.page in
    (match (Pm.alloc pm ~len:whole, Pm.alloc pm ~len:whole) with
    | Some a, Some b ->
        ignore (Pm.free pm a ~len:whole);
        ignore (Pm.free pm b ~len:whole)
    | _ -> Alcotest.fail "drained spans did not coalesce to whole extents");
    let st = Pm.stats pm in
    Alcotest.(check int) "grants all released"
      st.Pm.grants st.Pm.releases;
    Alcotest.(check int) "no fallbacks" 0 st.Pm.fallbacks
  in
  ignore (Sim.run s [| body |])

let default_config_keeps_manager_off () =
  Alcotest.(check bool) "Cfg.default leaves the page manager off" false
    Cfg.default.Cfg.page_manager;
  let s = sim ~cpus:1 () in
  let t = A.create s Cfg.default in
  Alcotest.(check bool) "no page-manager instance" true
    (A.page_manager t = None);
  List.iter
    (fun (site, n) ->
      if site = "buddy.acquire" || site = "buddy.release"
         || site = "buddy.coalesce" || site = "span.reserve" then
        Alcotest.(check int) ("no retries at " ^ site) 0 n)
    (A.retry_counts t)

(* The off path is the paper-verbatim path: with page_manager:false the
   whole run — every returned address and every OS counter — is
   bit-identical whatever span_pages is set to, because the reservoir
   is never consulted. *)
let off_path_bit_identical () =
  let run cfg =
    let s = sim ~cpus:2 ~seed:7 () in
    let rt = s in
    let t = A.create rt cfg in
    let threshold = Scls.large_threshold (A.size_classes t) in
    let log = ref [] in
    let body tid =
      let rng = Prng.create (5 + tid) in
      let addrs =
        Array.init 60 (fun _ ->
            let sz =
              if Prng.int rng 100 < 30 then
                Prng.int_in rng (threshold + 1) (threshold + 8192)
              else Prng.int_in rng 8 256
            in
            A.malloc t sz)
      in
      log := (tid, Array.to_list addrs) :: !log;
      Array.iter (A.free t) addrs
    in
    ignore (Sim.run s (Array.init 2 (fun _ -> body)));
    A.check_invariants t;
    (!log, Store.os_stats (A.store t))
  in
  let log_a, os_a = run (Cfg.make ~nheaps:1 ~sbsize:4096 ()) in
  let log_b, os_b =
    run
      (Cfg.make ~nheaps:1 ~sbsize:4096 ~page_manager:false ~span_pages:256 ())
  in
  Alcotest.(check bool) "address streams identical" true (log_a = log_b);
  Alcotest.(check bool) "OS counters identical" true (os_a = os_b)

(* The tentpole's OS-traffic claim, deterministically: the same seeded
   large-block churn with and without the manager. Routing large blocks
   through spans collapses the per-request mmap/munmap into a handful
   of span reservations, and the fragmentation accounting is conserved:
   granted extents are power-of-two roundings of the requests. *)
let large_routing_collapses_mmaps () =
  let churn ~page_manager =
    let s = sim ~cpus:4 () in
    let rt = s in
    let t =
      A.create rt
        (Cfg.make ~nheaps:1 ~sbsize:4096 ~page_manager ~span_pages:16 ())
    in
    let threshold = Scls.large_threshold (A.size_classes t) in
    let body tid =
      let rng = Prng.create (41 + tid) in
      for _ = 1 to 3 do
        let addrs =
          Array.init 40 (fun _ ->
              A.malloc t
                (Prng.int_in rng (threshold + 1) (threshold + (3 * Store.page))))
        in
        Array.iter (A.free t) addrs
      done
    in
    ignore (Sim.run s (Array.init 4 (fun _ -> body)));
    A.check_invariants t;
    Store.os_stats (A.store t)
  in
  let off = churn ~page_manager:false in
  let on = churn ~page_manager:true in
  Alcotest.(check bool)
    (Printf.sprintf "large mmaps collapse >= 5x (off %d, on %d)"
       off.Store.large_mmaps on.Store.large_mmaps)
    true
    (off.Store.large_mmaps >= 5 * max 1 on.Store.large_mmaps);
  Alcotest.(check bool)
    (Printf.sprintf "large munmaps collapse too (off %d, on %d)"
       off.Store.large_munmaps on.Store.large_munmaps)
    true
    (off.Store.large_munmaps >= 5 * max 1 on.Store.large_munmaps);
  Alcotest.(check int) "off path never consults the buddy" 0
    off.Store.pages_granted;
  Alcotest.(check bool) "buddy-served pages were accounted" true
    (on.Store.pages_requested > 0);
  Alcotest.(check bool) "grants are roundings of requests" true
    (on.Store.pages_granted >= on.Store.pages_requested)

(* Bounded-exhaustive schedule exploration over the buddy target (the
   check-quick gate runs a bigger budget; this is the in-tree
   regression). *)
let explorer_exclusivity () =
  let r = E.exhaustive T.buddy ~threads:2 ~bound:2 ~budget:5_000 in
  match r.E.finding with
  | None -> ()
  | Some f -> Alcotest.failf "buddy violation: %s" f.E.error

(* Kill a thread inside each buddy/span CAS window of the full
   allocator with the manager on. A killed thread strands its extent
   (and possibly a merge-claimed node, parking that subtree), so no
   quiescent conservation check — but the exclusivity oracle proves no
   survivor, nor a fresh wave afterwards, is ever handed overlapping
   large blocks. *)
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
  let t =
    A.create rt
      (Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:1 ~desc_scan_threshold:1
         ~page_manager:true ~span_pages:16 ())
  in
  let threshold = Scls.large_threshold (A.size_classes t) in
  let orc = O.create_alloc () in
  let m sz =
    let a = A.malloc t sz in
    O.malloc_returned orc a;
    a
  in
  let f a =
    let p = O.free_invoked orc a in
    A.free t a;
    O.free_returned orc p
  in
  let body tid =
    let rng = Prng.create (61 + tid) in
    for _ = 1 to 3 do
      let addrs =
        Array.init 12 (fun _ ->
            m (Prng.int_in rng (threshold + 1) (threshold + (3 * Store.page))))
      in
      Array.iter f addrs
    done
  in
  (try ignore (Sim.run s (Array.init 4 (fun _ -> body)))
   with O.Violation msg -> Alcotest.failf "exclusivity violated: %s" msg);
  Alcotest.(check bool) ("kill fired: " ^ label) true (!killed >= 0);
  (* Fresh wave on the same heap: anything the killed thread stranded —
     a busy extent, a merge-claimed subtree, a half-reserved span —
     must stay leaked, never re-issued. *)
  try
    ignore
      (Sim.run s
         [|
           (fun _ ->
             let rng = Prng.create 997 in
             let addrs =
               Array.init 60 (fun _ ->
                   m
                     (Prng.int_in rng (threshold + 1)
                        (threshold + (3 * Store.page))))
             in
             Array.iter f addrs);
         |])
  with O.Violation msg ->
    Alcotest.failf "stranded extent re-allocated after kill: %s" msg

let cases =
  [
    case "buddy grants never overlap" buddy_no_overlap;
    case "free + coalesce restores the maximum order"
      coalesce_restores_max_order;
    case "order-0 exhaustion reserves a fresh span"
      exhaustion_reserves_fresh_span;
    case "default config keeps the page manager off"
      default_config_keeps_manager_off;
    case "page_manager:false is bit-identical to the paper path"
      off_path_bit_identical;
    case "large-block routing collapses mmap traffic"
      large_routing_collapses_mmaps;
    case "explorer: per-page exclusivity on the buddy target"
      explorer_exclusivity;
  ]
  @ List.map
      (fun l ->
        case ("kill inside " ^ l ^ " never double-allocates")
          (kill_in_window l))
      Pg.all
