open Mm_runtime

(* Everything here drives controlled schedules, so the whole file works
   on the simulator's copy of the stack (DESIGN.md §18): [Sim_rt]
   handles are the simulator instance itself, no value dispatch. *)
module A = Mm_core_sim.Lf_alloc
module Notag = Mm_check_notag.Lf_alloc
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

type subject = { body : int -> unit; quiescent : unit -> unit }

type t = {
  name : string;
  doc : string;
  labels : string list;
  subject : Sim.t -> threads:int -> subject;
}

(* Every run uses a fresh simulator instance, so a (target, threads,
   decisions) triple is a pure function — the property replay relies on.
   Cycles still accumulate in controlled mode; the budget below is far
   above anything these tiny bodies reach, so hitting it means livelock. *)
let max_cycles = 10_000_000_000

let run target ~threads ?on_label ?(notify_done = ignore)
    ?(quiescent_checks = true) ~sched () =
  let s = Sim.create ~cpus:(max threads 1) ~max_cycles ?on_label ~sched () in
  try
    let sub = target.subject s ~threads in
    let body tid _ =
      sub.body tid;
      notify_done tid
    in
    ignore (Sim.run s (Array.init threads body));
    if quiescent_checks then sub.quiescent ();
    Ok ()
  with
  | Oracle.Violation msg -> Error ("violation: " ^ msg)
  | Sim.Deadlock msg -> Error ("deadlock: " ^ msg)
  | Sim.Progress_timeout msg -> Error ("livelock: " ^ msg)
  | Failure msg -> Error ("invariant: " ^ msg)

type alloc_body =
  threads:int -> malloc:(unit -> int) -> free:(int -> unit) -> int -> unit

(* The allocator targets: one oracle-wrapped malloc/free over a heap's
   runtime-erased instance, handed to a per-thread body. A quiescent
   run ends with the allocator's own invariant check. *)
let allocator instance ~size (body : alloc_body) s ~threads =
  let i : Mm_mem.Alloc_intf.instance = instance s in
  let orc = Oracle.create_alloc () in
  let malloc () =
    let a = i.malloc size in
    Oracle.malloc_returned orc a;
    a
  in
  let free a =
    let p = Oracle.free_invoked orc a in
    i.free a;
    Oracle.free_returned orc p
  in
  { body = body ~threads ~malloc ~free; quiescent = i.check }

let lf cfg s = A.instance (Rt.simulated s) (A.create s cfg)

(* One processor heap with maxcredits=2 and an eagerly scanning
   descriptor pool, so reserving, credit return, FULL/EMPTY transitions
   and descriptor recycling all happen within a handful of operations.
   store_capacity is tiny because the explorer builds a fresh heap per
   execution and runs tens of thousands of them. *)
let small_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:2 ~desc_scan_threshold:1
    ~store_capacity:128

let alloc_cfg = small_cfg ()

(* Label groups of the allocator targets, in registry order:
   MallocFromActive/UpdateActive (Fig. 4), the paper's free (Fig. 6)
   and the descriptor pool (Fig. 7). *)
let active =
  Labels.
    [ ma_read_active; ma_reserved; ma_pop_cas; ma_popped; ua_install;
      ua_credits_cas; ua_return_credits ]

let frees = Labels.[ free_cas; free_empty; free_put_partial; red_slot_cas ]
let descs = Labels.[ desc_alloc; desc_refill; desc_retire; desc_push ]
let three_labels = active @ (Labels.mnsb_install :: frees) @ descs

(* Three mallocs and three frees per thread: the smallest workload whose
   schedule space contains the tag-protected ABA window. *)
let three ~threads:_ ~malloc ~free _tid =
  let w = malloc () in
  let a = malloc () in
  let b = malloc () in
  free w;
  free a;
  free b

let lf_alloc =
  {
    name = "lf_alloc";
    doc = "the paper's allocator; malloc/free exclusivity + invariants";
    labels = three_labels;
    subject = allocator (lf alloc_cfg) ~size:8 three;
  }

let lf_alloc_notag =
  {
    name = "lf_alloc_notag";
    doc = "planted bug: anchor tag disabled, ABA on the pop CAS";
    labels = three_labels;
    subject =
      allocator
        (fun s -> Notag.instance (Rt.simulated s) (Notag.create s alloc_cfg))
        ~size:8 three;
  }

(* The cached frontend with a tiny cache (capacity 2, batch 2), so
   refills, hits, overflow flushes and the batched bc.* CAS windows all
   fall inside the same three mallocs + three frees per thread. *)
let lf_alloc_cached =
  let cfg = small_cfg ~cache:true ~cache_blocks:2 ~cache_batch:2 () in
  {
    name = "lf_alloc_cached";
    doc = "block-cache frontend over the allocator; same exclusivity oracle";
    labels =
      active
      @ Labels.[ mnsb_install; free_put_partial ]
      @ descs
      @ Labels.[ bc_reserve_cas; bc_pop_cas; bc_flush_cas ];
    subject =
      allocator
        (fun s -> Bc.instance (Rt.simulated s) (Bc.create s cfg))
        ~size:8 three;
  }

(* Owner-biased free lists (DESIGN.md §19) with eight-block superblocks
   (504-byte requests take the largest small class of a 4096-byte
   superblock) and a one-block LIFO of kept frees. Eight mallocs
   exhaust a thread's first superblock X; the ninth hands X off
   (pub.claim) and acquires the neighbour's X' if it is already partial
   (pub.claim own + ob.freeze) or carves a fresh one. The thread then
   frees three blocks of X: the LIFO keeps the first, so the second
   overflows to X's anchor — FULL->PARTIAL republishes X — and the
   third's push races the neighbour acquiring X. One more malloc pops
   the kept block and its free keeps it again, and finally the block
   its neighbour mailed it meets the full LIFO: a remote free into X'
   (anchor push, or pub.push once X' is owned again). The mailbox is
   written and drained between simulation points, never waited on, so
   killed threads just leak their slice. *)
let owner_biased ~threads ~malloc ~free =
  let mailbox = Array.make (max threads 1) 0 in
  fun tid ->
    let xs = Array.init 8 (fun _ -> malloc ()) in
    mailbox.((tid + 1) mod threads) <- xs.(0);
    let y = malloc () in
    free xs.(1);
    free xs.(2);
    free xs.(3);
    free y;
    free (malloc ());
    let incoming = mailbox.(tid) in
    if incoming <> 0 then begin
      mailbox.(tid) <- 0;
      free incoming
    end

let owner_biased_cfg =
  small_cfg ~free_lists:`Owner_biased ~cache_blocks:1 ~cache_batch:1 ()

let lf_alloc_owner_biased =
  {
    name = "lf_alloc_owner_biased";
    doc = "owner-biased free lists; pub.*, ob.freeze vs free.cas + same oracle";
    labels =
      Labels.
        [ hgp_slot_cas; free_cas; free_put_partial; desc_alloc; desc_refill;
          pub_push; pub_claim; ob_freeze ];
    subject = allocator (lf owner_biased_cfg) ~size:504 owner_biased;
  }

(* MallocFromPartial (Fig. 4): eight 504-byte mallocs fill a superblock,
   freeing the first turns it FULL->PARTIAL into the heap's Partial
   slot, and the ninth malloc takes it back from there (or from the
   partial list, or finds it EMPTY and retires it) before the last
   frees drain every superblock to EMPTY. *)
let partial ~threads:_ ~malloc ~free _tid =
  let xs = Array.init 8 (fun _ -> malloc ()) in
  free xs.(0);
  let y = malloc () in
  for i = 1 to 7 do
    free xs.(i)
  done;
  free y

let lf_alloc_partial =
  {
    name = "lf_alloc_partial";
    doc = "MallocFromPartial: full superblocks come back through Partial";
    labels =
      active
      @ Labels.
          [ mp_got_partial; mp_reserve_cas; mp_pop_cas; hgp_slot_cas;
            mnsb_install ]
      @ frees @ descs;
    subject = allocator (lf alloc_cfg) ~size:504 partial;
  }

(* The page-manager target: the span reservoir + lock-free buddy
   (lib/pages) driven directly, against per-page address exclusivity.
   Spans are 4 pages, so each thread's 1+2+1-page pattern forces
   splits, an exact fit, coalescing, and (with two threads racing a
   fresh reservoir) order-0 exhaustion into a second span reservation.
   Release is fragmentation-tolerant (abandoned coalesces leave
   split-but-free trees), so quiescence asserts the conservation
   invariant and zero live grants, not a fully-folded tree. *)
let pages s ~threads:_ =
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
  let quiescent () =
    Pm.check_invariants pm;
    if Oracle.live_count orc <> 0 then
      failwith "buddy grants still live at quiescence"
  in
  { body; quiescent }

let buddy =
  {
    name = "buddy";
    doc = "span reservoir + lock-free buddy; per-page exclusivity oracle";
    labels = Mm_pages.Pg_labels.all;
    subject = pages;
  }

(* Per-thread enqueue/dequeue bursts against the per-producer FIFO
   oracle. Enqueues are recorded before invocation (so a concurrent
   dequeue of the value is never "thin air"), dequeues after response. *)
let queue s ~threads:_ =
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
  { body; quiescent = (fun () -> Oracle.fifo_check orc) }

let ms_queue =
  {
    name = "ms_queue";
    doc = "Michael-Scott queue; per-producer FIFO oracle";
    labels = Lf_labels.[ msq_enq_cas; msq_deq_cas ];
    subject = queue;
  }

(* The ownership discipline of the pool and stack targets: each of
   [rounds] rounds takes [hold] items, owning each across a yield, then
   gives them back in order. The oracle rejects an id held by two
   threads at once; at quiescence none may still be held. *)
let ownership s ~rounds ~hold ~take ~give ~id ?(quiescent = ignore) () =
  let own = Oracle.create_ownership () in
  let body tid =
    for _ = 1 to rounds do
      let held =
        List.init hold (fun _ ->
            let x = take () in
            Option.iter (fun x -> Oracle.acquire own ~tid (id x)) x;
            Sim_rt.yield s;
            x)
      in
      List.iter
        (Option.iter (fun x ->
             Oracle.release own ~tid (id x);
             give x))
        held
    done
  in
  let quiescent () =
    if Oracle.held_count own <> 0 then failwith "ids still held at quiescence";
    quiescent ()
  in
  { body; quiescent }

let descr_id (d : Descr.t) = d.Descr.id

(* Threads alloc and retire descriptors through the hazard-pointer pool
   (batch 2, scan threshold 1, so recycling is immediate). *)
let hazard_pool s ~threads:_ =
  let table = Descr.create_table s ~capacity:256 in
  let pool =
    Dp.create s table ~kind:Cfg.Hazard ~batch_size:2 ~scan_threshold:1 ()
  in
  ownership s ~rounds:3 ~hold:1
    ~take:(fun () -> Some (Dp.alloc pool))
    ~give:(Dp.retire pool) ~id:descr_id ()

let desc_pool =
  {
    name = "desc_pool";
    doc = "hazard-pointer descriptor pool; exclusive-ownership oracle";
    labels = descs;
    subject = hazard_pool;
  }

(* Reuse-in-place pool (DESIGN.md §17) with batch_size 1: a thread
   holding two descriptors pushes the second retire onto the shared
   tagged stack and pops it back on the next alloc. Besides ownership,
   each life bumps the anchor tag once, the way every anchor CAS does
   in the allocator, and a slot coming back off the shared stack must
   never show an older tag than its last life. *)
let reuse_pool s ~threads:_ =
  let table = Descr.create_table s ~capacity:256 in
  let pool = Dp.create s table ~kind:Cfg.Reuse ~batch_size:1 () in
  let last_tag = Hashtbl.create 16 in
  let take () =
    let d = Dp.alloc pool in
    let a = Sim_rt.Atomic.get d.Descr.anchor in
    let tag = Mm_core.Anchor.tag a in
    (match Hashtbl.find_opt last_tag d.Descr.id with
    | Some prev when tag < prev ->
        failwith
          (Printf.sprintf
             "descriptor %d resurfaced with tag %d after reaching %d"
             d.Descr.id tag prev)
    | _ -> ());
    let a' = Mm_core.Anchor.incr_tag a in
    Sim_rt.Atomic.set d.Descr.anchor a';
    Hashtbl.replace last_tag d.Descr.id (Mm_core.Anchor.tag a');
    Some d
  in
  ownership s ~rounds:2 ~hold:2 ~take ~give:(Dp.retire pool) ~id:descr_id ()

let desc_pool_reuse =
  {
    name = "desc_pool_reuse";
    doc = "reuse-in-place descriptor pool; exclusivity + tag monotonicity";
    labels = Labels.desc_retire :: Lf_labels.[ tis_push_cas; tis_pop_cas ];
    subject = reuse_pool;
  }

(* The two freelist building blocks as id stacks: pre-seeded with one id
   per thread, each thread pops an id, briefly owns it and pushes it
   back; at quiescence every id must be back on the stack. *)
let id_stack make s ~threads =
  let push, pop, length = make s ~threads in
  for id = 0 to threads - 1 do
    push id
  done;
  let quiescent () =
    let n = length () in
    if n <> threads then
      failwith
        (Printf.sprintf "stack has %d ids at quiescence, expected %d" n
           threads)
  in
  ownership s ~rounds:3 ~hold:1 ~take:pop ~give:push ~id:Fun.id ~quiescent
    ()

let treiber_stack =
  {
    name = "treiber_stack";
    doc = "Treiber LIFO stack; exclusive-ownership oracle";
    labels = Lf_labels.[ ts_push_cas; ts_pop_cas ];
    subject =
      id_stack (fun s ~threads:_ ->
          let st = Ts.create s in
          (Ts.push st, (fun () -> Ts.pop st), fun () -> Ts.length st));
  }

(* Links held in an external array, as the descriptor pool uses it. *)
let tagged_id_stack =
  {
    name = "tagged_id_stack";
    doc = "tagged id freelist stack; exclusive-ownership oracle";
    labels = Lf_labels.[ tis_push_cas; tis_pop_cas ];
    subject =
      id_stack (fun s ~threads ->
          let links = Array.make (max threads 1) (-1) in
          let st =
            Tis.create s
              ~get_next:(fun id -> links.(id))
              ~set_next:(fun id n -> links.(id) <- n)
              ()
          in
          ( Tis.push st,
            (fun () -> Tis.pop st),
            fun () -> List.length (Tis.to_list st) ));
  }

let all =
  [ lf_alloc; lf_alloc_notag; lf_alloc_cached; lf_alloc_owner_biased;
    lf_alloc_partial; buddy; ms_queue; desc_pool; desc_pool_reuse;
    treiber_stack; tagged_id_stack ]

let find name = List.find_opt (fun t -> t.name = name) all
