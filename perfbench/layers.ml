(* Layer phase: the public entry points each layer of the allocator stack
   exports, timed in isolation on the calling domain with bechamel's OLS
   estimator (the method bench/main.ml uses). Each row reports ns and
   minor-heap words per call, and the r² of the time fit. *)

open Bechamel
open Toolkit
module Rt = Mm_runtime.Real_rt
module Store = Mm_mem.Store.Make (Rt)
module Treiber = Mm_lockfree.Treiber_stack.Make (Rt)
module Msq = Mm_lockfree.Ms_queue.Make (Rt)
module Tis = Mm_lockfree.Tagged_id_stack.Make (Rt)
module Descriptor = Mm_core.Descriptor.Make (Rt)
module Desc_pool = Mm_core.Desc_pool.Make (Rt)
module Page_manager = Mm_pages.Page_manager.Make (Rt)
module Buddy = Mm_pages.Buddy.Make (Rt)
module Lf = Heaps.Lf
module Bc = Heaps.Bc
module I = Mm_mem.Alloc_intf

type row = { name : string; ns : float; words : float; r2 : float }

(* The request size of bench/main.ml's malloc+free pair. *)
let size = 8

let simple name f = Test.make ~name (Staged.stage f)

let ok = function Some x -> x | None -> failwith "layer phase: call refused"

(* bechamel 0.5.0's [Test.multiple] hands every iteration of a sample
   the same resource, so the batch rows keep their own stack of batches:
   [allocate] runs once per iteration before the timed loop and [free]
   once per iteration after it; the timed function pushes or pops one
   batch per call. [reserved] keeps the array large enough that no push
   inside the timed loop grows it. *)
type stack = {
  mutable items : int list array;
  mutable top : int;
  mutable reserved : int;
}

let stack () = { items = Array.make 64 []; top = 0; reserved = 0 }

let push s b =
  s.items.(s.top) <- b;
  s.top <- s.top + 1

let pop s =
  s.top <- s.top - 1;
  let b = s.items.(s.top) in
  s.items.(s.top) <- [];
  b

let batch_row name s ~allocate ~free f =
  Test.make_with_resource ~name Test.multiple
    ~allocate:(fun () ->
      s.reserved <- s.reserved + 1;
      if s.top + s.reserved > Array.length s.items then
        s.items <-
          Array.append s.items (Array.make (Array.length s.items) []);
      allocate ())
    ~free:(fun () ->
      s.reserved <- s.reserved - 1;
      free ())
    (Staged.stage f)

let desc_pool_row kind name =
  let table = Descriptor.create_table () ~capacity:(1 lsl 16) in
  let pool = Desc_pool.create () table ~kind () in
  simple name (fun () -> Desc_pool.retire pool (Desc_pool.alloc pool))

let tests () =
  let cas = Rt.Atomic.make () 0 in
  let store = Store.create () () in
  let word = Store.alloc_superblock store + 64 in
  let treiber = Treiber.create () in
  let msq = Msq.create () in
  let links = Array.make 4 (-1) in
  let tis =
    Tis.create () ~get_next:(fun i -> links.(i))
      ~set_next:(fun i n -> links.(i) <- n)
      ()
  in
  let lf () = Lf.create () Heaps.base in
  let lf_pair = lf () and lf_refill = lf () and lf_flush = lf () in
  let sc =
    ok (Mm_mem.Size_class.class_of_request (Lf.size_classes lf_refill) size)
  in
  let batch = Heaps.base.Mm_mem.Alloc_config.cache_batch in
  let refilled = stack () and ready = stack () in
  let bc = Bc.create () { Heaps.base with Mm_mem.Alloc_config.cache = true } in
  let pm_store = Store.create () () in
  let pm = Page_manager.create () pm_store ~span_pages:64 () in
  let extent = 8 * Mm_mem.Store.page in
  let buddy = Buddy.create () ~order:6 () in
  let frontend name =
    let inst = Heaps.instance name (Heaps.create name) in
    simple ("frontend.malloc_free." ^ name) (fun () ->
        inst.I.free (inst.I.malloc size))
  in
  [
    simple "runtime.cas" (fun () ->
        let v = Rt.Atomic.get cas in
        ignore (Rt.Atomic.compare_and_set cas v (v + 1)));
    simple "store.read_word" (fun () -> ignore (Store.read_word store word));
    simple "store.write_word" (fun () -> Store.write_word store word 42);
    simple "store.superblock_alloc_free" (fun () ->
        Store.free_superblock store (Store.alloc_superblock store));
    simple "treiber_stack.push_pop" (fun () ->
        Treiber.push treiber 1;
        ignore (Treiber.pop treiber));
    simple "ms_queue.enqueue_dequeue" (fun () ->
        Msq.enqueue msq 1;
        ignore (Msq.dequeue msq));
    simple "tagged_id_stack.push_pop" (fun () ->
        Tis.push tis 1;
        ignore (Tis.pop tis));
    desc_pool_row Mm_mem.Alloc_config.Hazard "desc_pool.alloc_retire.hazard";
    desc_pool_row Mm_mem.Alloc_config.Reuse "desc_pool.alloc_retire.reuse";
    simple "lf_alloc.malloc_free" (fun () ->
        Lf.free lf_pair (Lf.malloc lf_pair size));
    (* One refill as the block cache issues it: a batch of credits in one
       Active CAS, or an ordinary malloc once the heap has no active
       superblock. The batches go back after the timed loop. *)
    batch_row "lf_alloc.refill_batch" refilled
      ~allocate:(fun () -> ())
      ~free:(fun () -> if refilled.top > 0 then Lf.flush_batch lf_refill (pop refilled))
      (fun () ->
        push refilled
          (match Lf.refill_batch lf_refill ~sc ~max:batch with
          | [] -> [ Lf.malloc lf_refill size ]
          | l -> l));
    (* One flush of a cache-batch of blocks malloc'd before the timed
       loop. *)
    batch_row "lf_alloc.flush_batch" ready
      ~allocate:(fun () ->
        push ready (List.init batch (fun _ -> Lf.malloc lf_flush size)))
      ~free:ignore
      (fun () -> Lf.flush_batch lf_flush (pop ready));
    simple "block_cache.malloc_free" (fun () -> Bc.free bc (Bc.malloc bc size));
    simple "page_manager.alloc_free" (fun () ->
        let a = ok (Page_manager.alloc pm ~len:extent) in
        if not (Page_manager.free pm a ~len:extent) then
          failwith "page_manager: extent outside every span");
    simple "buddy.acquire_release" (fun () ->
        let page = ok (Buddy.acquire buddy ~order:0) in
        Buddy.release buddy ~page ~order:0);
    simple "gc.minor_collection" (fun () -> Gc.minor ());
  ]
  @ List.map frontend Heaps.names

let run ~quota =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false
      ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let fit measure raw =
    let results = Analyze.all ols measure raw in
    match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
    | [ r ] ->
        let est =
          match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan
        in
        (est, Option.value (Analyze.OLS.r_square r) ~default:nan)
    | _ -> (nan, nan)
  in
  List.map
    (fun test ->
      let raw =
        Benchmark.all cfg
          [ Instance.monotonic_clock; Instance.minor_allocated ]
          test
      in
      let ns, r2 = fit Instance.monotonic_clock raw in
      let words, _ = fit Instance.minor_allocated raw in
      { name = Test.name test; ns; words; r2 })
    (tests ())
