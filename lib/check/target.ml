open Mm_runtime

(* Everything here drives controlled schedules, so the whole file works
   on the simulator's copy of the stack (DESIGN.md §18): [Sim_rt]
   handles are the simulator instance itself, no value dispatch. *)
module A = Mm_core_sim.Lf_alloc
module Bc = Mm_core_sim.Block_cache
module Descr = Mm_core_sim.Descriptor
module Dp = Mm_core_sim.Desc_pool
module St = Mm_mem_sim.Store
module Pm = Mm_pages_sim.Page_manager
module Labels = Mm_core.Labels
module Lf_labels = Mm_lockfree.Lf_labels
module Q = Mm_lockfree_sim.Ms_queue
module Ts = Mm_lockfree_sim.Treiber_stack
module Tis = Mm_lockfree_sim.Tagged_id_stack
module Cfg = Mm_mem.Alloc_config

type t = {
  name : string;
  doc : string;
  default_threads : int;
  labels : string list;
  run :
    threads:int ->
    ?on_label:(tid:int -> string -> Sim.action) ->
    ?notify_done:(int -> unit) ->
    ?quiescent_checks:bool ->
    sched:(Sim.sched_point -> int) ->
    unit ->
    (unit, string) result;
}

(* Every run uses a fresh simulator instance, so a (target, threads,
   decisions) triple is a pure function — the property replay relies on.
   Cycles still accumulate in controlled mode; the budget below is far
   above anything these tiny bodies reach, so hitting it means livelock. *)
let max_cycles = 10_000_000_000

let make_sim ~threads ?on_label ~sched () =
  let cpus = max threads 1 in
  match on_label with
  | Some on_label -> Sim.create ~cpus ~max_cycles ~on_label ~sched ()
  | None -> Sim.create ~cpus ~max_cycles ~sched ()

let guarded f =
  try
    f ();
    Ok ()
  with
  | Oracle.Violation msg -> Error ("violation: " ^ msg)
  | Sim.Deadlock msg -> Error ("deadlock: " ^ msg)
  | Sim.Progress_timeout msg -> Error ("livelock: " ^ msg)
  | Failure msg -> Error ("invariant: " ^ msg)

let spawn s ~threads ?notify_done body =
  let wrap tid _ =
    body tid;
    match notify_done with Some f -> f tid | None -> ()
  in
  ignore (Sim.run s (Array.init threads wrap))

(* The allocator target: every thread mallocs three blocks and frees
   them, all in one processor heap with maxcredits=2 and an eagerly
   scanning descriptor pool, so reserving, credit return, FULL/EMPTY
   transitions and descriptor recycling all happen within a handful of
   operations — the smallest workload whose schedule space contains the
   tag-protected ABA window. *)
let alloc_cfg ~anchor_tag =
  (* store_capacity is tiny because the explorer builds a fresh heap per
     execution and runs tens of thousands of them. *)
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:2 ~desc_scan_threshold:1
    ~store_capacity:128 ~anchor_tag ()

let alloc_run ~anchor_tag ~threads ?on_label ?notify_done
    ?(quiescent_checks = true) ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let t = A.create s (alloc_cfg ~anchor_tag) in
  let orc = Oracle.create_alloc () in
  let m () =
    let a = A.malloc t 8 in
    Oracle.malloc_returned orc a;
    a
  in
  let f a =
    let p = Oracle.free_invoked orc a in
    A.free t a;
    Oracle.free_returned orc p
  in
  let body _tid =
    let w = m () in
    let a = m () in
    let b = m () in
    f w;
    f a;
    f b
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then A.check_invariants t)

let lf_alloc =
  {
    name = "lf_alloc";
    doc = "the paper's allocator; malloc/free exclusivity + invariants";
    default_threads = 2;
    labels = Labels.all;
    run = (fun ~threads -> alloc_run ~anchor_tag:true ~threads);
  }

let lf_alloc_notag =
  {
    name = "lf_alloc_notag";
    doc = "planted bug: anchor tag disabled, ABA on the pop CAS";
    default_threads = 2;
    labels = Labels.all;
    run = (fun ~threads -> alloc_run ~anchor_tag:false ~threads);
  }

(* The cached-frontend target: same oracle workload through
   Block_cache with a tiny cache (capacity 2, batch 2) so refills,
   hits, overflow flushes and the batched bc.* CAS windows all fall
   inside three mallocs + three frees per thread. A killed thread's
   cached blocks leak, so kill runs skip quiescent conservation — the
   exclusivity oracle still proves they are never handed out twice. *)
let cached_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:2 ~desc_scan_threshold:1
    ~store_capacity:128 ~cache:true ~cache_blocks:2 ~cache_batch:2 ()

let cached_run ~threads ?on_label ?notify_done ?(quiescent_checks = true)
    ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let t = Bc.create s cached_cfg in
  let orc = Oracle.create_alloc () in
  let m () =
    let a = Bc.malloc t 8 in
    Oracle.malloc_returned orc a;
    a
  in
  let f a =
    let p = Oracle.free_invoked orc a in
    Bc.free t a;
    Oracle.free_returned orc p
  in
  let body _tid =
    let w = m () in
    let a = m () in
    let b = m () in
    f w;
    f a;
    f b
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then Bc.check_invariants t)

let lf_alloc_cached =
  {
    name = "lf_alloc_cached";
    doc = "block-cache frontend over the allocator; same exclusivity oracle";
    default_threads = 2;
    labels = Labels.all;
    run = cached_run;
  }

(* The owner-biased target: the allocator with `Owner_biased free
   lists (DESIGN.md §19) and eight-block superblocks (504-byte requests
   take the largest small class of a 4096-byte superblock, 512-byte
   blocks). Eight mallocs exhaust a thread's first superblock X; the
   ninth hands X off (pub.claim) and acquires the neighbour's X' if it
   is already partial (pub.claim own + ob.freeze) or carves a fresh one.
   The thread then frees two blocks of X — FULL->PARTIAL republishes X,
   and the second push races the neighbour acquiring X, the window the
   freeze CAS and the pusher's pub re-read close — and finally the
   block its neighbour mailed it, a remote free into X' (anchor push,
   or pub.push once X' is owned again). The mailbox is a plain
   single-producer/single-consumer slot per thread — written and
   drained between simulation points, never waited on, so killed
   threads just leak their slice. *)
let ob_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:2 ~desc_scan_threshold:1
    ~store_capacity:128 ~free_lists:`Owner_biased ()

let ob_run ~threads ?on_label ?notify_done ?(quiescent_checks = true) ~sched
    () =
  let s = make_sim ~threads ?on_label ~sched () in
  let t = A.create s ob_cfg in
  let orc = Oracle.create_alloc () in
  let mailbox = Array.make (max threads 1) 0 in
  let m () =
    let a = A.malloc t 504 in
    Oracle.malloc_returned orc a;
    a
  in
  let f a =
    let p = Oracle.free_invoked orc a in
    A.free t a;
    Oracle.free_returned orc p
  in
  let body tid =
    let xs = Array.init 8 (fun _ -> m ()) in
    mailbox.((tid + 1) mod threads) <- xs.(0);
    let y = m () in
    f xs.(1);
    f xs.(2);
    f y;
    (* Non-blocking drain: a neighbour that has not mailed yet (or was
       killed) just leaves the slot empty. *)
    let incoming = mailbox.(tid) in
    if incoming <> 0 then begin
      mailbox.(tid) <- 0;
      f incoming
    end
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then A.check_invariants t)

let lf_alloc_owner_biased =
  {
    name = "lf_alloc_owner_biased";
    doc = "owner-biased free lists; pub.*, ob.freeze vs free.cas + same oracle";
    default_threads = 2;
    labels = Labels.all;
    run = ob_run;
  }

(* The page-manager target: the span reservoir + lock-free buddy
   (lib/pages) driven directly, against per-page address exclusivity —
   no two live grants may overlap in any page. Spans are 4 pages, so
   each thread's 1+2+1-page pattern forces splits, an exact fit,
   coalescing, and (with two threads racing a fresh reservoir)
   order-0 exhaustion into a second span reservation — every Pg_labels
   window falls inside six operations. Release is
   fragmentation-tolerant (abandoned coalesces leave split-but-free
   trees), so quiescence asserts the conservation invariant and zero
   live grants, not a fully-folded tree. *)
let buddy_run ~threads ?on_label ?notify_done ?(quiescent_checks = true)
    ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let store = St.create s ~capacity:128 ~sbsize:4096 () in
  let pm = Pm.create s store ~max_spans:4 ~span_pages:4 () in
  let page = Mm_mem.Store.page in
  let orc = Oracle.create_alloc () in
  let m pages =
    match Pm.alloc pm ~len:(pages * page) with
    | None -> None
    | Some a ->
        for i = 0 to pages - 1 do
          Oracle.malloc_returned orc (a + (i * page))
        done;
        Some a
  in
  let f a pages =
    let ps =
      List.init pages (fun i -> Oracle.free_invoked orc (a + (i * page)))
    in
    if not (Pm.free pm a ~len:(pages * page)) then
      failwith "page manager disowned a granted extent";
    List.iter (Oracle.free_returned orc) ps
  in
  let body _tid =
    let a = m 1 in
    let b = m 2 in
    Option.iter (fun x -> f x 1) a;
    let c = m 1 in
    Option.iter (fun x -> f x 2) b;
    Option.iter (fun x -> f x 1) c
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then begin
        Pm.check_invariants pm;
        if Oracle.live_count orc <> 0 then
          failwith "buddy grants still live at quiescence"
      end)

let buddy =
  {
    name = "buddy";
    doc = "span reservoir + lock-free buddy; per-page exclusivity oracle";
    default_threads = 2;
    labels = Mm_pages.Pg_labels.all;
    run = buddy_run;
  }

(* MS queue target: per-thread enqueue/dequeue bursts checked against the
   per-producer FIFO oracle. Enqueues are recorded before invocation
   (so a concurrent dequeue of the value is never "thin air"), dequeues
   after response. *)
let queue_run ~threads ?on_label ?notify_done ?(quiescent_checks = true)
    ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let q = Q.create s in
  let orc = Oracle.create_fifo () in
  let enq tid v =
    Oracle.enqueued orc ~tid v;
    Q.enqueue q v
  in
  let deq () =
    match Q.dequeue q with
    | Some v -> Oracle.dequeued orc ~producer:(v / 1000) v
    | None -> ()
  in
  let body tid =
    let v i = (tid * 1000) + i in
    enq tid (v 0);
    enq tid (v 1);
    deq ();
    enq tid (v 2);
    deq ();
    deq ()
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then Oracle.fifo_check orc)

let ms_queue =
  {
    name = "ms_queue";
    doc = "Michael-Scott queue; per-producer FIFO oracle";
    default_threads = 2;
    labels =
      Lf_labels.
        [ msq_enq_cas; msq_enq_swing; msq_deq_cas; msq_deq_help ];
    run = queue_run;
  }

(* Descriptor-pool target: threads alloc and retire descriptors through
   the hazard-pointer pool (batch 2, scan threshold 1, so recycling is
   immediate); the ownership oracle rejects the same descriptor being
   handed to two threads at once. *)
let pool_run ~threads ?on_label ?notify_done ?(quiescent_checks = true)
    ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let table = Descr.create_table s ~capacity:256 in
  let pool =
    Dp.create s table ~kind:Cfg.Hazard ~batch_size:2 ~scan_threshold:1 ()
  in
  let own = Oracle.create_ownership () in
  let body tid =
    for _ = 1 to 3 do
      let d = Dp.alloc pool in
      Oracle.acquire own ~tid d.Descr.id;
      Sim_rt.yield s;
      Oracle.release own ~tid d.Descr.id;
      Dp.retire pool d
    done
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks && Oracle.held_count own <> 0 then
        failwith "descriptors still held at quiescence")

let desc_pool =
  {
    name = "desc_pool";
    doc = "hazard-pointer descriptor pool; exclusive-ownership oracle";
    default_threads = 2;
    labels =
      Labels.[ desc_alloc; desc_refill; desc_retire; desc_push ];
    run = pool_run;
  }

(* Reuse-in-place pool target (DESIGN.md §17): batch_size 1 means a
   thread holding two descriptors spills on the second retire and
   steals on the second alloc, so the explored schedule space contains
   the shared-stack hand-off windows. Two oracles: exclusive ownership
   (a reused slot is never handed to two threads at once) and per-slot
   tag monotonicity — each life bumps the anchor tag once, the way
   every anchor CAS does in the allocator, and a slot coming back off
   the shared stack must never show an older tag than its last life. *)
let pool_reuse_run ~threads ?on_label ?notify_done
    ?(quiescent_checks = true) ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let table = Descr.create_table s ~capacity:256 in
  let pool = Dp.create s table ~kind:Cfg.Reuse ~batch_size:1 () in
  let own = Oracle.create_ownership () in
  let last_tag = Hashtbl.create 16 in
  let take tid =
    let d = Dp.alloc pool in
    let id = d.Descr.id in
    Oracle.acquire own ~tid id;
    let a = Sim_rt.Atomic.get d.Descr.anchor in
    let tag = Mm_core.Anchor.tag a in
    (match Hashtbl.find_opt last_tag id with
    | Some prev when tag < prev ->
        failwith
          (Printf.sprintf
             "descriptor %d resurfaced with tag %d after reaching %d" id
             tag prev)
    | _ -> ());
    let a' = Mm_core.Anchor.incr_tag a in
    Sim_rt.Atomic.set d.Descr.anchor a';
    Hashtbl.replace last_tag id (Mm_core.Anchor.tag a');
    Sim_rt.yield s;
    d
  in
  let put tid (d : Descr.t) =
    Oracle.release own ~tid d.Descr.id;
    Dp.retire pool d
  in
  let body tid =
    for _ = 1 to 2 do
      let a = take tid in
      let b = take tid in
      put tid a;
      (* the private LIFO (capacity 1) is full: this retire spills *)
      put tid b
    done
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks && Oracle.held_count own <> 0 then
        failwith "descriptors still held at quiescence")

let desc_pool_reuse =
  {
    name = "desc_pool_reuse";
    doc = "reuse-in-place descriptor pool; exclusivity + tag monotonicity";
    default_threads = 2;
    labels = Labels.[ desc_retire; desc_spill; desc_steal ];
    run = pool_reuse_run;
  }

(* Stack targets: the two freelist building blocks under the same
   ownership discipline as the descriptor pool — the stack is pre-seeded
   with one id per thread, and each thread repeatedly pops an id,
   briefly owns it, and pushes it back. The ownership oracle rejects two
   threads holding one id at once; at quiescence every id must be back
   on the stack. *)
let ts_run ~threads ?on_label ?notify_done ?(quiescent_checks = true)
    ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let st = Ts.create s in
  for id = 0 to threads - 1 do
    Ts.push st id
  done;
  let own = Oracle.create_ownership () in
  let body tid =
    for _ = 1 to 3 do
      match Ts.pop st with
      | Some id ->
          Oracle.acquire own ~tid id;
          Sim_rt.yield s;
          Oracle.release own ~tid id;
          Ts.push st id
      | None -> Sim_rt.yield s
    done
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then begin
        if Oracle.held_count own <> 0 then
          failwith "stack ids still held at quiescence";
        let n = Ts.length st in
        if n <> threads then
          failwith
            (Printf.sprintf "stack has %d ids at quiescence, expected %d"
               n threads)
      end)

let treiber_stack =
  {
    name = "treiber_stack";
    doc = "Treiber LIFO stack; exclusive-ownership oracle";
    default_threads = 2;
    labels = Lf_labels.[ ts_push_cas; ts_pop_cas ];
    run = ts_run;
  }

let tis_run ~threads ?on_label ?notify_done ?(quiescent_checks = true)
    ~sched () =
  let s = make_sim ~threads ?on_label ~sched () in
  let links = Array.make (max threads 1) (-1) in
  let st =
    Tis.create s
      ~get_next:(fun id -> links.(id))
      ~set_next:(fun id n -> links.(id) <- n)
      ()
  in
  for id = 0 to threads - 1 do
    Tis.push st id
  done;
  let own = Oracle.create_ownership () in
  let body tid =
    for _ = 1 to 3 do
      match Tis.pop st with
      | Some id ->
          Oracle.acquire own ~tid id;
          Sim_rt.yield s;
          Oracle.release own ~tid id;
          Tis.push st id
      | None -> Sim_rt.yield s
    done
  in
  guarded (fun () ->
      spawn s ~threads ?notify_done body;
      if quiescent_checks then begin
        if Oracle.held_count own <> 0 then
          failwith "stack ids still held at quiescence";
        let n = List.length (Tis.to_list st) in
        if n <> threads then
          failwith
            (Printf.sprintf "stack has %d ids at quiescence, expected %d"
               n threads)
      end)

let tagged_id_stack =
  {
    name = "tagged_id_stack";
    doc = "tagged id freelist stack; exclusive-ownership oracle";
    default_threads = 2;
    labels = Lf_labels.[ tis_push_cas; tis_pop_cas ];
    run = tis_run;
  }

let all =
  [ lf_alloc; lf_alloc_notag; lf_alloc_cached;
    lf_alloc_owner_biased; buddy; ms_queue; desc_pool; desc_pool_reuse;
    treiber_stack; tagged_id_stack ]

let find name = List.find_opt (fun t -> t.name = name) all
