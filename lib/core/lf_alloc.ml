module Cfg = Mm_mem.Alloc_config
module Addr = Mm_mem.Addr
module Sc = Mm_mem.Size_class
module Prefix = Mm_mem.Block_prefix
module Pm = Page_manager

(* Line numbers in comments refer to the paper's Figures 4 (malloc) and
   6 (free). *)

type heap = {
  gid : int;  (* sc * nheaps + idx *)
  sc : int;
  idx : int;  (* processor heap within the class *)
  active : int Rt.atomic;  (* packed Active_word, 0 = NULL *)
  partial : int Rt.atomic;  (* descriptor id, 0 = none *)
      (* Both words are written by every thread of the heap's class and
         sit on cache lines of their own (Rt.Atomic.make_contended). *)
  list : Partial_list.t;
      (* The list behind the Partial slot: the size class's one list,
         shared by its whole row, under `Anchor (Fig. 4); the heap's own
         under `Owner_biased (DESIGN.md §19). *)
}

type t = {
  rt : Rt.t;
  cfg : Cfg.t;
  store : Store.t;
  classes : Sc.t;
  nheaps_ : int;
  heaps : heap array array;  (* [size class].[processor heap] *)
  (* The two divisions of the hot path, [tid mod nheaps] and [gid /
     nheaps, gid mod nheaps], tabulated: [home.(tid)] is thread [tid]'s
     processor heap and [by_gid.(gid)] the heap of global index [gid]. *)
  home : int array;
  by_gid : heap array;
  table : Descriptor.table;
  pool : Desc_pool.t;
  pm : Pm.t option;  (* span reservoir + buddy backend, DESIGN.md §15 *)
  counts : Stripes.t;
      (* Striped counters, one padded row per thread: column [i]
         counts failed CASes at the [i]th of [retry_sites] —
         quantifies where interference lands, cf. the paper's §4.2.3
         discussion of overlapping read-modify-write segments — and
         the last two columns count mallocs and frees. *)
  (* Owner-biased free lists (DESIGN.md §19): [ob] caches the mode
     test off the config. [rows] holds one padded row per thread; for
     size class [sc], from cell [sc * stride]: the id of the superblock
     the thread owns (0 = none), the length of its LIFO of kept
     blocks, then the LIFO's [keep] payload slots ([cache_blocks]).
     Only thread [tid] writes its row, so the ownership test in [free]
     reads its own always-coherent cell rather than a possibly stale
     cross-thread descriptor field. Under `Anchor the rows are empty. *)
  ob : bool;
  rows : Stripes.t;
  stride : int;
  keep : int;
}

(* The contention-site row set is the label registry's census grouping
   (this layer's followed by the page layer's) — a new labeled site
   added to [Labels.census_sites] gets a counter column here, a row in
   the harness table and in the obs equality proof automatically, and
   a counter named after no census site fails loudly at start-up. *)
let retry_sites =
  List.map fst Labels.census_sites
  @ List.map fst Mm_pages.Pg_labels.census_sites

let column site =
  let rec go i = function
    | [] -> invalid_arg ("Lf_alloc: no census site " ^ site)
    | s :: rest -> if s = site then i else go (i + 1) rest
  in
  go 0 retry_sites

let c_reserve = column "active.reserve"
let c_pop = column "anchor.pop"
let c_free = column "anchor.free"
let c_update_active = column "update_active"
let c_partial_slot = column "partial.slot"
let c_pub_push = column "pub.push"
let c_pub_claim = column "pub.claim"
let c_mallocs = List.length retry_sites
let c_frees = c_mallocs + 1

let name = "new"

(* The descriptor table has 2 x store_capacity slots with slot 0 kept
   for NULL, and the pool's first alloc takes one whole batch of ids
   from it, so a smaller store fails its very first malloc. *)
let min_store_capacity = (Desc_pool.default_batch_size + 2) / 2

(* [block_index] divides a block offset by the block size with one
   multiply and one shift: [recip = ceil (2^recip_shift / sz)], set per
   descriptor when its superblock is carved. Writing [off = q sz + r]
   and [recip sz = 2^recip_shift + e] with [0 <= e < sz], [(off recip)
   lsr recip_shift] is [q] exactly when [off e < 2^recip_shift]. Offsets
   inside a superblock are below [sbsize] and classes are at most
   [sbsize / 8] bytes, so [sbsize <= 2^20] keeps [off e] below [2^20 *
   2^17]: [create] rejects larger superblocks. *)
let recip_shift = 37
let max_sbsize = 1 lsl 20
let reciprocal sz = ((1 lsl recip_shift) + sz - 1) / sz

let create rt (cfg : Cfg.t) =
  if cfg.store_capacity < min_store_capacity then
    invalid_arg
      (Printf.sprintf
         "Lf_alloc.create: store_capacity %d is below %d (one batch of %d \
          descriptor ids must fit the 2 x store_capacity descriptor table, \
          slot 0 reserved)"
         cfg.store_capacity min_store_capacity Desc_pool.default_batch_size);
  if cfg.sbsize > max_sbsize then
    invalid_arg
      (Printf.sprintf
         "Lf_alloc.create: sbsize %d is above %d, the largest superblock whose \
          block offsets the descriptor's reciprocal divides exactly"
         cfg.sbsize max_sbsize);
  let classes = Sc.make ~sbsize:cfg.sbsize () in
  let nheaps = Cfg.resolve_nheaps cfg ~num_cpus:(Rt.num_cpus rt) in
  let store =
    Store.create rt ~capacity:cfg.store_capacity ~sbsize:cfg.sbsize
      ~hyperblocks:cfg.hyperblocks ()
  in
  let table = Descriptor.create_table rt ~capacity:(2 * cfg.store_capacity) in
  let counts = Stripes.create ~threads:Rt.max_threads ~columns:(c_frees + 1) in
  let stripe site =
    let c = column site in
    fun () -> Stripes.bump counts (Rt.self rt) c
  in
  let pool =
    Desc_pool.create rt table ~kind:cfg.desc_pool
      ?scan_threshold:
        (if cfg.desc_scan_threshold > 0 then Some cfg.desc_scan_threshold
         else None)
      ()
  in
  let nclasses = Sc.count classes in
  let ob = cfg.free_lists = `Owner_biased in
  let new_list () = Partial_list.create rt cfg.partial_policy in
  let heaps =
    Array.init nclasses (fun sc ->
        let class_list = new_list () in
        Array.init nheaps (fun h ->
            {
              gid = (sc * nheaps) + h;
              sc;
              idx = h;
              active = Rt.Atomic.make_contended rt Active_word.null;
              partial = Rt.Atomic.make_contended rt 0;
              list = (if ob && h > 0 then new_list () else class_list);
            }))
  in
  let pm =
    if cfg.page_manager then
      Some
        (Pm.create rt store ~span_pages:cfg.span_pages
           ~on_acquire_retry:(stripe "buddy.acquire")
           ~on_release_retry:(stripe "buddy.release")
           ~on_coalesce_retry:(stripe "buddy.coalesce")
           ~on_span_retry:(stripe "span.reserve") ())
    else None
  in
  {
    rt;
    cfg;
    store;
    classes;
    nheaps_ = nheaps;
    heaps;
    home = Array.init Rt.max_threads (fun tid -> tid mod nheaps);
    by_gid = Array.concat (Array.to_list heaps);
    table;
    pool;
    pm;
    counts;
    ob;
    rows =
      Stripes.create ~threads:Rt.max_threads
        ~columns:(if ob then nclasses * (cfg.cache_blocks + 2) else 0);
    stride = cfg.cache_blocks + 2;
    keep = cfg.cache_blocks;
  }

(* [@inline] on the per-operation helpers below, as on the word codecs,
   [Stripes] and [Store]'s accessors: without flambda the compiler
   inlines only bodies of size 10 or less (DESIGN.md §18). The CAS
   retry loops stay out of line. *)
let[@inline] count_at t tid c = Stripes.bump t.counts tid c
let bump t c = count_at t (Rt.self t.rt) c
let fail fmt = Format.kasprintf failwith fmt
let column_total t c = Stripes.total t.counts c
let op_counts t = (column_total t c_mallocs, column_total t c_frees)

let retry_counts t =
  List.mapi (fun c site -> (site, column_total t c)) retry_sites

let rt t = t.rt
let store t = t.store
let page_manager t = t.pm

(* Superblock backing: with the page manager on, superblocks are carved
   out of reserved spans (no syscall) and released back to the owning
   span's buddy; the store's mmap/munmap path serves only the
   [page_manager:false] configuration and reservoir exhaustion. A
   released superblock routes by ownership — [Pm.free] recognizes span
   extents by region, so store-mapped superblocks (including any
   allocated before the reservoir filled) still unmap correctly. *)
let alloc_sb t =
  match t.pm with
  | Some pm -> (
      match Pm.alloc pm ~len:t.cfg.sbsize with
      | Some addr -> addr
      | None -> Store.alloc_superblock t.store)
  | None -> Store.alloc_superblock t.store

let release_sb t sb =
  match t.pm with
  | Some pm when Pm.free pm sb ~len:t.cfg.sbsize -> ()
  | _ -> Store.free_superblock t.store sb
let size_classes t = t.classes
let nheaps t = t.nheaps_
let descriptor_table t = t.table
let desc_pool t = t.pool

let[@inline] heap_of_gid t gid = t.by_gid.(gid)
let home_heap t ~tid = t.home.(tid)

let heap_coords t gid =
  let h = heap_of_gid t gid in
  (h.sc, h.idx)

(* [heap_at] takes the dense thread id from the caller: [Rt.self] is a
   domain-local lookup on the real runtime, so the hot entry points
   resolve it once per operation and thread it through. *)
let[@inline] heap_at t sc tid = t.heaps.(sc).(t.home.(tid))

(* ------------------------------------------------------------------ *)
(* Blocks of a superblock. *)

let clamp_index next = next land Anchor.max_count
let block_addr (desc : Descriptor.t) idx = desc.sb + (idx * desc.sz)

(* Wild-pointer guard (cheap, no division): [base] must be a block
   boundary of the descriptor's superblock. Catches frees of interior
   pointers and of addresses never returned by malloc before they can
   corrupt a free list. Returns the block's index. The quotient is exact
   for every offset inside the superblock (see [recip_shift]); outside
   it, whatever [idx] comes out, [idx < maxcount] and [idx sz = off]
   together hold only at a block boundary, so a negative or far offset
   is rejected too. *)
let[@inline] block_index (desc : Descriptor.t) base =
  let off = base - desc.sb in
  let idx = (off * desc.recip) lsr recip_shift in
  if idx >= desc.maxcount || idx * desc.sz <> off then
    invalid_arg "Lf_alloc.free: not a block address";
  idx

let[@inline] finish_block t (desc : Descriptor.t) addr =
  (* line 21: store the descriptor in the block prefix. *)
  Store.write_word t.store addr (Prefix.small ~desc_id:desc.id);
  addr + Prefix.prefix_bytes

(* ------------------------------------------------------------------ *)
(* HeapPutPartial / HeapGetPartial / RemoveEmptyDesc (Figs. 4 & 6). *)

(* Every CAS retry loop in this file is a top-level [let rec] taking
   its environment and the backoff state as arguments: a local loop
   closing over them would allocate a closure per call on the real
   runtime (DESIGN.md §18). *)

let rec swap_partial t heap id spins =
  let prev = Rt.Atomic.get heap.partial in
  Rt.label t.rt Labels.free_put_partial;
  if Rt.Atomic.compare_and_set heap.partial prev id then prev
  else begin
    bump t c_partial_slot;
    swap_partial t heap id (Backoff.spin t.rt spins)
  end

(* A republished superblock goes back to the heap its [heap_gid]
   names: into its slot, and whatever the slot held onto its list. *)
let heap_put_partial t desc =
  let heap = heap_of_gid t desc.Descriptor.heap_gid in
  let prev = swap_partial t heap desc.Descriptor.id Backoff.initial in
  if prev <> 0 then Partial_list.put heap.list (Descriptor.get t.table prev)

let[@inline] next_in (row : heap array) i =
  if i + 1 = Array.length row then 0 else i + 1

(* The owner-biased HeapGetPartial's last resort: the other heaps'
   lists of the class, from [row.(i)] round to [row.(stop)], the
   caller's own (DESIGN.md §19). *)
let rec steal_partial (row : heap array) i ~stop =
  if i = stop then None
  else
    match Partial_list.get row.(i).list with
    | None -> steal_partial row (next_in row i) ~stop
    | got -> got

(* The slot, then the heap's list; under owner bias the heap's list is
   its own, so the sibling heaps' lists come last, before a new
   superblock is carved. *)
let rec heap_get_partial t heap =
  let id = Rt.Atomic.get heap.partial in
  if id = 0 then
    match Partial_list.get heap.list with
    | None when t.ob ->
        let row = t.heaps.(heap.sc) in
        steal_partial row (next_in row heap.idx) ~stop:heap.idx
    | got -> got
  else begin
    Rt.label t.rt Labels.hgp_slot_cas;
    if Rt.Atomic.compare_and_set heap.partial id 0 then
      Some (Descriptor.get t.table id)
    else heap_get_partial t heap
  end

let remove_empty_desc t heap desc =
  Rt.label t.rt Labels.red_slot_cas;
  if Rt.Atomic.compare_and_set heap.partial desc.Descriptor.id 0 then begin
    (* Guard against the (astronomically narrow) slot ABA the paper's
       pseudocode leaves open: between our EMPTY transition and this CAS,
       the descriptor could have been retired by a ListRemoveEmptyDesc,
       reused for a fresh superblock, gone PARTIAL again and landed back
       in this very slot. Retiring it then would corrupt its new life, so
       re-validate the state and reinsert if it is alive. *)
    if
      Anchor.state (Rt.Atomic.get desc.Descriptor.anchor) = Anchor.Empty
    then Desc_pool.retire t.pool desc
    else heap_put_partial t desc
  end
  else Partial_list.remove_empty heap.list ~retire:(Desc_pool.retire t.pool)

(* Release a superblock that just went EMPTY from [oldstate] (Fig. 6
   lines 19-21): unmap it, then retire the descriptor. A PARTIAL
   superblock may sit in the partial structures, so it is removed with
   the slot-ABA guard above; a FULL one is in none — only a run of all
   its blocks empties it at once — so it is exclusively ours to
   retire. *)
let release_emptied t desc ~oldstate ~heap_gid =
  release_sb t desc.Descriptor.sb;
  if oldstate = Anchor.Full then Desc_pool.retire t.pool desc
  else remove_empty_desc t (heap_of_gid t heap_gid) desc

(* ------------------------------------------------------------------ *)
(* UpdateActive (Fig. 4). *)

let rec return_credits t (desc : Descriptor.t) morecredits spins =
  let oldanchor = Rt.Atomic.get desc.anchor in
  let newanchor =
    Anchor.set_state
      (Anchor.set_count oldanchor (Anchor.count oldanchor + morecredits))
      Anchor.Partial
  in
  Rt.label t.rt Labels.ua_credits_cas;
  if not (Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor) then begin
    bump t c_update_active;
    return_credits t desc morecredits (Backoff.spin t.rt spins)
  end

let update_active t heap desc morecredits =
  let newactive =
    Active_word.make ~desc_id:desc.Descriptor.id ~credits:(morecredits - 1)
  in
  Rt.label t.rt Labels.ua_install;
  (* line 3 *)
  if Rt.Atomic.compare_and_set heap.active Active_word.null newactive then ()
  else begin
    (* Someone installed another active superblock: return the credits to
       the anchor and make the superblock PARTIAL (lines 4-8). *)
    return_credits t desc morecredits Backoff.initial;
    Rt.obs_event t.rt Rt.Obs.Transition "sb.active->partial";
    Rt.label t.rt Labels.ua_return_credits;
    heap_put_partial t desc
  end

(* ------------------------------------------------------------------ *)
(* MallocFromActive's two steps (Fig. 4) for [want] blocks at once.
   MallocFromActive is the size-one case; the block-cache refill
   (below) takes a whole batch through the same two CASes. *)

(* First step: reserve (lines 1-6). An Active word with c credits
   entitles its takers to c + 1 pops, so taking min want (c + 1)
   reservations at once just subtracts them (emptying the word when
   all c + 1 go), and the free-list-length invariant (length >= count
   + outstanding reservations) guarantees the pop below finds them
   linked. Returns the replaced word, or NULL when there is no active
   superblock. *)
let rec reserve_active t heap ~want ~label spins =
  let oldactive = Rt.Atomic.get heap.active in
  if Active_word.is_null oldactive then oldactive
  else begin
    let credits = Active_word.credits oldactive in
    let newactive =
      if want > credits then Active_word.null
      else
        Active_word.make
          ~desc_id:(Active_word.desc_id oldactive)
          ~credits:(credits - want)
    in
    Rt.label t.rt label;
    if Rt.Atomic.compare_and_set heap.active oldactive newactive then
      oldactive
    else begin
      bump t c_reserve;
      reserve_active t heap ~want ~label (Backoff.spin t.rt spins)
    end
  end

(* Second step: pop [n] reserved blocks in one tag-bumping anchor CAS
   (lines 7-18; MallocFromPartial's lines 11-15 with [took_last =
   false]). Each link read may return garbage when racing — line 10's
   racy read, [n] times — and the tag bump in the CAS rejects any walk
   that observed a mutated list. [took_last] folds the credit/state
   bookkeeping into the same CAS. The first block is at the returned
   anchor's [avail]; the addresses of the other [n - 1] are left in
   [dst] from [pos] on (nothing is written when n = 1). *)
let rec pop_blocks t (desc : Descriptor.t) ~n ~took_last ~label
    (dst : int array) ~pos spins =
  let oldanchor = Rt.Atomic.get desc.anchor in
  let idx = ref (Anchor.avail oldanchor) in
  for i = 0 to n - 1 do
    let addr = block_addr desc !idx in
    if i > 0 then dst.(pos + i - 1) <- addr;
    (* [clamp_index] only keeps a racy value representable. *)
    idx := clamp_index (Store.read_word_racy t.store addr)
  done;
  let newanchor = Anchor.incr_tag (Anchor.set_avail oldanchor !idx) in
  let count = Anchor.count oldanchor in
  let newanchor =
    if not took_last then newanchor
    else if count = 0 then
      (* line 15: out of blocks entirely. *)
      Anchor.set_state newanchor Anchor.Full
    else
      (* lines 16-17: grab more credits for UpdateActive. *)
      Anchor.set_count newanchor (count - Int.min count t.cfg.maxcredits)
  in
  Rt.label t.rt label;
  if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then oldanchor
  else begin
    bump t c_pop;
    pop_blocks t desc ~n ~took_last ~label dst ~pos (Backoff.spin t.rt spins)
  end

(* lines 19-20: whoever took the last reservation reinstalls the
   superblock with the credits its pop grabbed. *)
let[@inline] settle_active t heap desc ~took_last oldanchor =
  if took_last then
    let count = Anchor.count oldanchor in
    if count > 0 then update_active t heap desc (Int.min count t.cfg.maxcredits)
    else Rt.obs_event t.rt Rt.Obs.Transition "sb.active->full"

(* MallocFromActive (Fig. 4); NULL when the heap has no active
   superblock. *)
let malloc_from_active t heap =
  let oldactive =
    reserve_active t heap ~want:1 ~label:Labels.ma_read_active
      Backoff.initial
  in
  if Active_word.is_null oldactive then Addr.null
  else begin
    Rt.label t.rt Labels.ma_reserved;
    let desc = Descriptor.get t.table (Active_word.desc_id oldactive) in
    let took_last = Active_word.credits oldactive = 0 in
    let oldanchor =
      pop_blocks t desc ~n:1 ~took_last ~label:Labels.ma_pop_cas [||] ~pos:0
        Backoff.initial
    in
    Rt.label t.rt Labels.ma_popped;
    settle_active t heap desc ~took_last oldanchor;
    finish_block t desc (block_addr desc (Anchor.avail oldanchor))
  end

(* ------------------------------------------------------------------ *)
(* MallocFromPartial (Fig. 4). *)

(* Reserve blocks (lines 4-10): -1 when the superblock became EMPTY
   under us. *)
let rec reserve_partial t (desc : Descriptor.t) spins =
  let oldanchor = Rt.Atomic.get desc.anchor in
  if Anchor.state oldanchor = Anchor.Empty then -1
  else begin
    (* state must be PARTIAL and count > 0 here. *)
    let count = Anchor.count oldanchor in
    let morecredits = Int.min (count - 1) t.cfg.maxcredits in
    let newanchor =
      Anchor.set_state
        (Anchor.set_count oldanchor (count - morecredits - 1))
        (if morecredits > 0 then Anchor.Active else Anchor.Full)
    in
    Rt.label t.rt Labels.mp_reserve_cas;
    if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then
      morecredits
    else begin
      bump t c_reserve;
      reserve_partial t desc (Backoff.spin t.rt spins)
    end
  end

let rec malloc_from_partial t heap =
  match heap_get_partial t heap with
  | None -> Addr.null
  | Some desc ->
      Rt.label t.rt Labels.mp_got_partial;
      (* mm-sa: allow write-before-publish: no fence before the reserve
         CAS: it only moves anchor credits and publishes no block
         memory. heap_gid is read by remote frees that synchronize
         through this descriptor's anchor anyway, and the CAS itself
         orders the store. Explicit fences are reserved for link words
         that remote pops read with racy loads (flush_from,
         hazard_refill). The same holds for the pop and the
         update_active CAS below. *)
      desc.Descriptor.heap_gid <- heap.gid;
      (* line 3 *)
      let morecredits = reserve_partial t desc Backoff.initial in
      if morecredits < 0 then begin
        (* lines 5-6: release and retry. *)
        Desc_pool.retire t.pool desc;
        malloc_from_partial t heap
      end
      else begin
        Rt.obs_event t.rt Rt.Obs.Transition
          (if morecredits > 0 then "sb.partial->active"
           else "sb.partial->full");
        (* Pop the reserved block (lines 11-15). *)
        let oldanchor =
          pop_blocks t desc ~n:1 ~took_last:false ~label:Labels.mp_pop_cas
            [||] ~pos:0 Backoff.initial
        in
        (* lines 16-17 *)
        if morecredits > 0 then update_active t heap desc morecredits;
        finish_block t desc (block_addr desc (Anchor.avail oldanchor))
      end

(* ------------------------------------------------------------------ *)
(* A new superblock for [heap]'s class. *)

(* MallocFromNewSB lines 1-3: a descriptor and a superblock whose
   blocks are chained 0 -> 1 -> ... -> maxcount - 1. When no
   superblock can be had (the store's region table is full) the
   descriptor goes back to the pool before the failure propagates. *)
let carve_sb t heap =
  let desc = Desc_pool.alloc t.pool in
  (* line 1 *)
  let sz = Sc.block_size t.classes heap.sc in
  let maxcount =
    Int.min (Sc.blocks_per_superblock t.classes heap.sc) Anchor.max_count
  in
  let sb =
    match alloc_sb t with
    | sb -> sb
    | exception (Failure _ as e) ->
        desc.Descriptor.sb <- Addr.null;
        Desc_pool.retire t.pool desc;
        raise e
  in
  (* line 2 *)
  desc.Descriptor.sb <- sb;
  desc.Descriptor.heap_gid <- heap.gid;
  desc.Descriptor.sz <- sz;
  desc.Descriptor.maxcount <- maxcount;
  desc.Descriptor.recip <- reciprocal sz;
  Store.init_free_list ~limit:t.cfg.sbsize t.store sb ~sz ~maxcount;
  (* line 3 *)
  desc

(* MallocFromNewSB (Fig. 4); NULL when another thread installed an
   active superblock first. *)
let malloc_from_new_sb t heap =
  let desc = carve_sb t heap in
  let maxcount = desc.Descriptor.maxcount in
  (* The anchor keeps its tag across descriptor reuse, preserving the
     ABA argument over the descriptor's whole history. *)
  let a0 = Rt.Atomic.get desc.Descriptor.anchor in
  (* line 9: newactive.credits = min(maxcount-1, MAXCREDITS) - 1 *)
  let credits = Int.min (maxcount - 1) t.cfg.maxcredits - 1 in
  let newactive = Active_word.make ~desc_id:desc.Descriptor.id ~credits in
  (* lines 5, 10, 11 *)
  Rt.Atomic.set desc.Descriptor.anchor
    (Anchor.make ~avail:1
       ~count:(maxcount - 1 - (credits + 1))
       ~state:Anchor.Active ~tag:(Anchor.tag a0 + 1));
  Rt.fence t.rt;
  (* line 12 *)
  Rt.label t.rt Labels.mnsb_install;
  (* line 13 *)
  if Rt.Atomic.compare_and_set heap.active Active_word.null newactive then begin
    (* lines 14-15: take the head block. *)
    Rt.obs_event t.rt Rt.Obs.Transition "sb.new->active";
    finish_block t desc desc.Descriptor.sb
  end
  else begin
    (* lines 16-17: another thread won the race. Nothing was handed
       out, so unmap the superblock and retire the descriptor, its
       anchor reset to rest EMPTY with the tag moved forward, never
       back. The reset sits between the unmap and the retire: the
       golden traces pin the order of these shared-memory events. *)
    release_sb t desc.Descriptor.sb;
    Rt.Atomic.set desc.Descriptor.anchor
      (Anchor.make ~avail:0 ~count:(maxcount - 1) ~state:Anchor.Empty
         ~tag:(Anchor.tag a0 + 2));
    desc.Descriptor.sb <- Addr.null;
    Desc_pool.retire t.pool desc;
    Addr.null
  end

(* ------------------------------------------------------------------ *)
(* free (Fig. 6): push a run of [n] blocks of one superblock. [free] is
   the size-one case; the block-cache flush pushes a whole group. The
   caller has chained the run first -> ... -> last through the blocks'
   link words (nothing to write when n = 1); only the tail's link is
   rewritten per attempt.

   Owner-biased free lists (DESIGN.md §19),
   [Alloc_config.free_lists = `Owner_biased]: a superblock is either
   OWNED by one thread — its anchor frozen at FULL(0,0), its free
   blocks split between the owner's private plain-write LIFO
   (descriptor fields [priv_head]/[priv_count], links threaded through
   payload words) and the public {!Pub_word} list — or UNOWNED, in
   which case it follows the paper's figures exactly: its free blocks
   sit on the anchor, frees push there, and the pub word is empty and
   only gates (re)gaining ownership. The governing invariant: the
   anchor of a descriptor whose pub word has the owned bit set is
   written only by the thread that set that bit, and no block is ever
   pushed onto an unowned pub word. *)

(* The anchor push, with the EMPTY and FULL->PARTIAL transitions.
   [count = maxcount - n] at the CAS means the run's blocks were the
   only allocated ones (so no Active word can reference the
   descriptor), generalizing the paper's n = 1 emptiness test.

   Owner-biased mode: every attempt re-reads the pub word after the
   anchor, and pushes onto the public list instead if an acquirer has
   owned it meanwhile. An acquirer owns the pub word before it reads
   the anchor and freezes it with a tag-bumping CAS, so a push that
   still read "unowned" either lands first (the freeze re-reads and
   takes its blocks) or fails against the bumped tag and lands here
   again. *)
let rec anchor_push t (desc : Descriptor.t) ~first_idx ~last ~n ~label spins =
  let oldanchor = Rt.Atomic.get desc.anchor in
  if t.ob && Pub_word.owned (Rt.Atomic.get desc.pub) then
    pub_push t desc ~first_idx ~last ~n Backoff.initial
  else begin
    (* line 8: thread the run onto the available list. *)
    Store.write_word t.store last (Anchor.avail oldanchor);
    (* line 9 *)
    let with_avail = Anchor.set_avail oldanchor first_idx in
    let oldstate = Anchor.state oldanchor in
    (* lines 12-15: the superblock empties. *)
    let empties = Anchor.count oldanchor = desc.maxcount - n in
    (* line 13 *)
    let heap_gid = desc.heap_gid in
    let newanchor =
      if empties then begin
        Rt.fence t.rt;
        (* line 14: instruction fence *)
        Anchor.set_state with_avail Anchor.Empty
      end
      else
        (* lines 10-11, 16 *)
        let st = if oldstate = Anchor.Full then Anchor.Partial else oldstate in
        Anchor.set_count (Anchor.set_state with_avail st)
          (Anchor.count oldanchor + n)
    in
    Rt.fence t.rt;
    (* line 17: memory fence *)
    Rt.label t.rt label;
    if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then begin
      if empties then begin
        (* lines 19-21 *)
        Rt.obs_event t.rt Rt.Obs.Transition "sb.empty";
        Rt.label t.rt Labels.free_empty;
        release_emptied t desc ~oldstate ~heap_gid
      end
      else if oldstate = Anchor.Full then begin
        (* lines 22-23 *)
        Rt.obs_event t.rt Rt.Obs.Transition "sb.full->partial";
        heap_put_partial t desc
      end
    end
    else begin
      bump t c_free;
      anchor_push t desc ~first_idx ~last ~n ~label (Backoff.spin t.rt spins)
    end
  end

(* A non-owner's push in owner-biased mode. An unowned superblock
   takes the run on its anchor (above: one CAS, as in Fig. 6, under
   [free.cas] whether a free or a cache flush pushes it). An
   owned one takes it on the public list: link the run's tail against
   the observed public head and publish with one [pub.push] CAS; the
   fence publishes the link writes before the CAS makes them reachable
   (mm-sa write-before-publish). A handoff bumps the word's tag, so a
   push that read "owned" cannot land on the unowned word. *)
and pub_push t (desc : Descriptor.t) ~first_idx ~last ~n spins =
  let oldpub = Rt.Atomic.get desc.pub in
  if not (Pub_word.owned oldpub) then
    anchor_push t desc ~first_idx ~last ~n ~label:Labels.free_cas
      Backoff.initial
  else begin
    Store.write_word t.store last (Pub_word.head oldpub);
    Rt.fence t.rt;
    Rt.label t.rt Labels.pub_push;
    if
      not
        (Rt.Atomic.compare_and_set desc.pub oldpub
           (Pub_word.push_n oldpub ~idx:first_idx ~n))
    then begin
      bump t c_pub_push;
      pub_push t desc ~first_idx ~last ~n (Backoff.spin t.rt spins)
    end
  end

(* The thread's row and the first cell of size class [sc] in it: the
   owned id at [c], the LIFO's length at [c + 1], its slots from
   [c + 2]. *)
let[@inline] ob_row t tid = Stripes.row t.rows tid
let[@inline] ob_col t sc = Stripes.pad + (sc * t.stride)

(* The kept-block LIFO: [n] is its length, read by the caller. A kept
   block's prefix is intact, so a pop hands its payload straight back. *)
let[@inline] lifo_pop (row : int array) c n =
  row.(c + 1) <- n - 1;
  row.(c + 1 + n)

let[@inline] lifo_push (row : int array) c n payload =
  row.(c + 2 + n) <- payload;
  row.(c + 1) <- n + 1

(* Private-LIFO pop and push, the owner's alone: a private block is
   free and reachable only by the owning thread, so the link reads are
   non-racy and nothing is a CAS or a fence. The pop's caller
   guarantees [priv_count > 0]. *)
let[@inline] priv_pop t (desc : Descriptor.t) =
  let addr = block_addr desc desc.priv_head in
  desc.priv_head <- clamp_index (Store.read_word t.store addr);
  desc.priv_count <- desc.priv_count - 1;
  addr

let[@inline] priv_push t (desc : Descriptor.t) ~first_idx ~base =
  Store.write_word t.store base desc.priv_head;
  desc.priv_head <- first_idx;
  desc.priv_count <- desc.priv_count + 1

(* The owner-biased free of one small block, three ways: a block of
   the superblock the caller owns goes to its private list; any other
   block of the caller's home heap is kept on the class's LIFO while
   it has room, for the caller's next malloc of the class; everything
   else goes straight to its superblock, through [pub_push] (one
   [pub.push] CAS, or Fig. 6's anchor CAS when the superblock is
   unowned).

   [sc] is trustworthy: the block is allocated, so its descriptor is
   not recycled and every [heap_gid] it can hold names a heap of its
   class. The ownership test reads only the caller's own row: if we
   own the descriptor we wrote [heap_gid] ourselves; if we don't, our
   row cannot hold its id (ids are unique and the row lists exactly
   what we own). The home test may read a [heap_gid] a sibling heap
   is rewriting; a stale answer only keeps or passes on a block it
   would not have, and either is safe. *)
let free_ob t tid (desc : Descriptor.t) ~first_idx ~base payload =
  let heap = heap_of_gid t desc.heap_gid in
  let row = ob_row t tid and c = ob_col t heap.sc in
  if row.(c) = desc.id then priv_push t desc ~first_idx ~base
  else begin
    let n = row.(c + 1) in
    if n < t.keep && heap.idx = t.home.(tid) then lifo_push row c n payload
    else pub_push t desc ~first_idx ~last:base ~n:1 Backoff.initial
  end

(* Set the owned bit of a descriptor just taken out of a partial
   structure. Its pub word is unowned and empty: only an acquirer owns
   an unowned word, and a descriptor sits in at most one partial
   structure, which the acquirer has just taken it out of. *)
let rec ob_own t (desc : Descriptor.t) =
  let oldpub = Rt.Atomic.get desc.pub in
  if Pub_word.owned oldpub then
    fail "ob_own: desc %d owned while in a partial structure" desc.id;
  Rt.label t.rt Labels.pub_claim;
  if not (Rt.Atomic.compare_and_set desc.pub oldpub (Pub_word.owned_empty oldpub))
  then begin
    bump t c_pub_claim;
    ob_own t desc
  end

(* Freeze an owned superblock's anchor at FULL(0,0), returning the
   anchor it replaced (or the EMPTY anchor it found). The CAS bumps the
   tag, so it both absorbs and fences off frees that read the pub word
   before [ob_own] set the bit (see [anchor_push]). *)
let rec ob_freeze t (desc : Descriptor.t) spins =
  let a = Rt.Atomic.get desc.anchor in
  match Anchor.state a with
  | Anchor.Empty -> a
  | Anchor.Partial ->
      Rt.label t.rt Labels.ob_freeze;
      if
        Rt.Atomic.compare_and_set desc.anchor a
          (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Full
             ~tag:(Anchor.tag a + 1))
      then a
      else begin
        bump t c_pop;
        ob_freeze t desc (Backoff.spin t.rt spins)
      end
  | st ->
      fail "ob_freeze: desc %d in state %s out of a partial structure"
        desc.id (Anchor.state_to_string st)

(* mm-sa: allow write-before-publish: no fence between the heap_gid
   store and the freeze CAS, as in [malloc_from_partial]: heap_gid is
   read by remote frees that synchronize through this descriptor's
   anchor anyway, the CAS itself orders the store, and a stale heap_gid
   only ever yields a correct "not the owner" (see [free_ob]). *)
let rec ob_acquire_partial t heap (row : int array) c =
  match heap_get_partial t heap with
  | None -> None
  | Some desc ->
      ob_own t desc;
      desc.Descriptor.heap_gid <- heap.gid;
      let a = ob_freeze t desc Backoff.initial in
      if Anchor.state a = Anchor.Empty then begin
        (* EMPTY lingering in a partial structure (the remove-empty
           fallback leaves these in the anchor path too): all blocks
           free, so no pushers — plain-release and keep looking. *)
        Rt.Atomic.set desc.Descriptor.pub
          (Pub_word.unowned_empty (Rt.Atomic.get desc.Descriptor.pub));
        Desc_pool.retire t.pool desc;
        ob_acquire_partial t heap row c
      end
      else begin
        (* The frozen chain goes private. *)
        desc.Descriptor.priv_head <- Anchor.avail a;
        desc.Descriptor.priv_count <- Anchor.count a;
        row.(c) <- desc.Descriptor.id;
        Rt.obs_event t.rt Rt.Obs.Transition "sb.partial->owned";
        Some desc
      end

(* A new superblock, owned outright: its whole free list (chained
   from block 0) becomes the private list. Ownership is per-thread, so
   there is no install race to lose and both words are plain sets
   (tags continue the descriptor's own sequence, as everywhere). *)
let ob_acquire_new t heap (row : int array) c =
  let desc = carve_sb t heap in
  let a0 = Rt.Atomic.get desc.Descriptor.anchor in
  desc.Descriptor.priv_head <- 0;
  desc.Descriptor.priv_count <- desc.Descriptor.maxcount;
  Rt.Atomic.set desc.Descriptor.anchor
    (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Full
       ~tag:(Anchor.tag a0 + 1));
  Rt.Atomic.set desc.Descriptor.pub
    (Pub_word.owned_empty (Rt.Atomic.get desc.Descriptor.pub));
  row.(c) <- desc.Descriptor.id;
  Rt.obs_event t.rt Rt.Obs.Transition "sb.new->owned";
  desc

(* The owner's slow path: private list empty. Claim the whole public
   list in one CAS if it has blocks; otherwise hand the superblock
   off — un-own the pub word, leaving the anchor FULL(0,0) with every
   block allocated out, so later frees push onto the anchor as in
   Fig. 6 and the FULL->PARTIAL one republishes it — and go acquire a
   superblock with blocks. Returns [true] when the private list was
   refilled. *)
let rec ob_owner_refill t (desc : Descriptor.t) (row : int array) c =
  let oldpub = Rt.Atomic.get desc.Descriptor.pub in
  if Pub_word.count oldpub > 0 then begin
    Rt.label t.rt Labels.pub_claim;
    if
      Rt.Atomic.compare_and_set desc.Descriptor.pub oldpub
        (Pub_word.claim oldpub)
    then begin
      desc.Descriptor.priv_head <- Pub_word.head oldpub;
      desc.Descriptor.priv_count <- Pub_word.count oldpub;
      true
    end
    else begin
      bump t c_pub_claim;
      ob_owner_refill t desc row c
    end
  end
  else begin
    Rt.label t.rt Labels.pub_claim;
    if
      Rt.Atomic.compare_and_set desc.Descriptor.pub oldpub
        (Pub_word.unowned_empty oldpub)
    then begin
      row.(c) <- 0;
      Rt.obs_event t.rt Rt.Obs.Transition "sb.owned->handoff";
      false
    end
    else begin
      (* A push landed between the read and the CAS: keep owning and
         claim it on the next round. *)
      bump t c_pub_claim;
      ob_owner_refill t desc row c
    end
  end

(* The owner's malloc once the class's LIFO is empty: a private pop,
   else a claim of the public list or a handoff, else an acquisition. *)
let rec malloc_ob t (row : int array) c sc tid =
  let id = row.(c) in
  if id <> 0 then begin
    let desc = Descriptor.get t.table id in
    if desc.Descriptor.priv_count > 0 then
      finish_block t desc (priv_pop t desc)
    else begin
      ignore (ob_owner_refill t desc row c : bool);
      malloc_ob t row c sc tid
    end
  end
  else begin
    let heap = heap_at t sc tid in
    let desc =
      match ob_acquire_partial t heap row c with
      | Some d -> d
      | None -> ob_acquire_new t heap row c
    in
    (* PARTIAL anchors have count > 0 and new superblocks maxcount
       blocks, so the fresh private list is never empty here. *)
    finish_block t desc (priv_pop t desc)
  end

(* ------------------------------------------------------------------ *)
(* malloc (Fig. 4). *)

(* lines 2-3, rerouted: with the page manager on, large blocks come
   from a span's buddy (no syscall) and only spill to the store's
   direct-map path when no span can serve the size. The prefix records
   the total length either way — [free_large_block] recovers the
   buddy order from it. *)
let malloc_large t n =
  let len = n + Prefix.prefix_bytes in
  let base =
    match t.pm with
    | Some pm -> (
        match Pm.alloc pm ~len with
        | Some addr -> addr
        | None -> Store.alloc_large t.store ~len)
    | None -> Store.alloc_large t.store ~len
  in
  Store.write_word t.store base (Prefix.large ~total_len:len);
  base + Prefix.prefix_bytes

let free_large_block t base prefix =
  match t.pm with
  | Some pm when Pm.free pm base ~len:(Prefix.large_len prefix) -> ()
  | _ -> Store.free_large t.store base

let rec malloc_small t heap =
  let p = malloc_from_active t heap in
  if p <> Addr.null then p
  else
    let p = malloc_from_partial t heap in
    if p <> Addr.null then p
    else
      let p = malloc_from_new_sb t heap in
      if p <> Addr.null then p else malloc_small t heap

let malloc t n =
  if n < 0 then invalid_arg "Lf_alloc.malloc: negative size";
  let tid = Rt.self t.rt in
  count_at t tid c_mallocs;
  match Sc.class_of_request t.classes n with
  | None -> malloc_large t n (* lines 2-3 *)
  | Some sc ->
      if t.ob then begin
        (* The LIFO of kept blocks first, then the owner's paths. *)
        let row = ob_row t tid and c = ob_col t sc in
        let n = row.(c + 1) in
        if n > 0 then lifo_pop row c n else malloc_ob t row c sc tid
      end
      else (* line 1 *) malloc_small t (heap_at t sc tid)

let free_large t ~tid ~payload prefix =
  count_at t tid c_frees;
  free_large_block t (payload - Prefix.prefix_bytes) prefix

let free t payload =
  if payload = Addr.null then ()
  else begin
    let tid = Rt.self t.rt in
    count_at t tid c_frees;
    (* lines 2-3 *)
    let base = payload - Prefix.prefix_bytes in
    let prefix = Store.read_word t.store base in
    if Prefix.is_large prefix then free_large_block t base prefix
      (* lines 4-5 *)
    else begin
      let desc = Descriptor.get t.table (Prefix.desc_id prefix) in
      let first_idx = block_index desc base in
      if t.ob then free_ob t tid desc ~first_idx ~base payload
      else
        anchor_push t desc ~first_idx ~last:base ~n:1 ~label:Labels.free_cas
          Backoff.initial
    end
  end

(* Empty the calling thread's LIFOs: each kept block leaves the row
   before it goes on, as [free_ob] passes a block on, so a thread
   killed meanwhile holds none of them twice. *)
let flush_current t =
  if t.ob then begin
    let row = ob_row t (Rt.self t.rt) in
    for sc = 0 to Sc.count t.classes - 1 do
      let c = ob_col t sc in
      let n = row.(c + 1) in
      row.(c + 1) <- 0;
      for i = 0 to n - 1 do
        let base = row.(c + 2 + i) - Prefix.prefix_bytes in
        let desc =
          Descriptor.get t.table (Prefix.desc_id (Store.read_word t.store base))
        in
        let first_idx = block_index desc base in
        if row.(c) = desc.id then priv_push t desc ~first_idx ~base
        else pub_push t desc ~first_idx ~last:base ~n:1 Backoff.initial
      done
    done
  end

let kept_blocks t ~tid =
  if not t.ob then 0
  else begin
    let row = ob_row t tid in
    let n = ref 0 in
    for sc = 0 to Sc.count t.classes - 1 do
      n := !n + row.(ob_col t sc + 1)
    done;
    !n
  end

let usable_size t payload =
  let prefix = Store.read_word t.store (payload - Prefix.prefix_bytes) in
  (if Prefix.is_large prefix then Prefix.large_len prefix
   else (Descriptor.get t.table (Prefix.desc_id prefix)).Descriptor.sz)
  - Prefix.prefix_bytes

(* ------------------------------------------------------------------ *)
(* Batched refill / flush — the entry points of the per-thread
   block-cache frontend (Block_cache, DESIGN.md §13). Not in the
   paper's figures: they run Fig. 4's reservation + pop and Fig. 6's
   push above for up to [cache_batch] blocks at once, so every
   shared-structure step stays lock-free and every CAS window carries
   its own [bc.*] label. Owner-biased heaps carry their own
   thread-local layer and no block cache: there the refill finds no
   Active word and takes nothing, and the flush pushes each group as
   [anchor_push] does, onto the public list of an owned superblock. *)

let[@inline] classify t ~tid ~payload prefix =
  if Prefix.is_large prefix then -1
  else begin
    let desc = Descriptor.get t.table (Prefix.desc_id prefix) in
    (* The wild-pointer guard, applied before the block can enter a
       cache and corrupt a free list much later. *)
    ignore (block_index desc (payload - Prefix.prefix_bytes) : int);
    let heap = heap_of_gid t desc.Descriptor.heap_gid in
    (heap.sc lsl 1) lor Bool.to_int (heap.idx = t.home.(tid))
  end

(* The first block in free-list order goes LAST, on top of the slice
   seen as a LIFO. Prefixes are written (line 21) in free-list order,
   as [malloc] writes them one at a time. *)
let refill_into t ~sc ~max:want (dst : int array) ~pos =
  if want < 1 then invalid_arg "Lf_alloc.refill_into: max must be >= 1";
  let heap = heap_at t sc (Rt.self t.rt) in
  let oldactive =
    reserve_active t heap ~want ~label:Labels.bc_reserve_cas Backoff.initial
  in
  if Active_word.is_null oldactive then 0
  else begin
    let desc = Descriptor.get t.table (Active_word.desc_id oldactive) in
    let take = Int.min want (Active_word.credits oldactive + 1) in
    let took_last = take = Active_word.credits oldactive + 1 in
    let oldanchor =
      pop_blocks t desc ~n:take ~took_last ~label:Labels.bc_pop_cas dst ~pos
        Backoff.initial
    in
    settle_active t heap desc ~took_last oldanchor;
    dst.(pos + take - 1) <-
      finish_block t desc (block_addr desc (Anchor.avail oldanchor));
    for i = pos to pos + take - 2 do
      dst.(i) <- finish_block t desc dst.(i)
    done;
    take
  end

let refill_batch t ~sc ~max:want =
  let dst = Array.make (Int.max want 0) 0 in
  let k = refill_into t ~sc ~max:want dst ~pos:0 in
  if k = 0 then [] else dst.(k - 1) :: List.init (k - 1) (Array.get dst)

(* Chain the rest of one superblock's group — the blocks of [desc]
   from slice index [j] on, in batch order — behind [last] (Fig. 6
   line 8, once per block), clearing their scratch ids, then push the
   whole run [first] -> ... -> last with one CAS; the push links the
   tail. *)
let rec push_group t (desc : Descriptor.t) (src : int array) ~pos ~n
    ~scratch ~first ~last ~count j =
  if j < n then begin
    if src.(scratch + j) = desc.id then begin
      let base = src.(pos + j) - Prefix.prefix_bytes in
      Store.write_word t.store last (block_index desc base);
      src.(scratch + j) <- 0;
      push_group t desc src ~pos ~n ~scratch ~first ~last:base
        ~count:(count + 1) (j + 1)
    end
    else
      push_group t desc src ~pos ~n ~scratch ~first ~last ~count (j + 1)
  end
  else begin
    anchor_push t desc ~first_idx:(block_index desc first) ~last ~n:count
      ~label:Labels.bc_flush_cas Backoff.initial
  end

(* Pass one reads each prefix once: a large block goes back on the
   spot, a small one's descriptor id goes to the scratch slice (ids
   start at 1, so 0 marks a done slot). Pass two pushes each
   superblock's group, in first-seen order. *)
let flush_from t (src : int array) ~pos ~n ~scratch =
  for i = 0 to n - 1 do
    let base = src.(pos + i) - Prefix.prefix_bytes in
    let prefix = Store.read_word t.store base in
    if Prefix.is_large prefix then begin
      free_large_block t base prefix;
      src.(scratch + i) <- 0
    end
    else src.(scratch + i) <- Prefix.desc_id prefix
  done;
  for i = 0 to n - 1 do
    let id = src.(scratch + i) in
    if id <> 0 then begin
      let first = src.(pos + i) - Prefix.prefix_bytes in
      push_group t (Descriptor.get t.table id) src ~pos ~n ~scratch
        ~first ~last:first ~count:1 (i + 1)
    end
  done

let flush_batch t payloads =
  let n = List.length payloads in
  let src = Array.make (2 * n) 0 in
  List.iteri (fun i p -> src.(i) <- p) payloads;
  flush_from t src ~pos:0 ~n ~scratch:n

(* ------------------------------------------------------------------ *)
(* Introspection and quiescent invariant checking. *)

let heap_active_desc t ~sc ~heap =
  let aw = Rt.Atomic.get t.heaps.(sc).(heap).active in
  if Active_word.is_null aw then None
  else
    Some (Descriptor.get t.table (Active_word.desc_id aw), Active_word.credits aw)

let heap_partial_desc t ~sc ~heap =
  let id = Rt.Atomic.get t.heaps.(sc).(heap).partial in
  if id = 0 then None else Some (Descriptor.get t.table id)

let partial_list t ~sc ~heap = t.heaps.(sc).(heap).list

(* The heaps of a class's row whose lists are distinct: every heap under
   owner bias, the first alone under `Anchor, where the row shares one
   list. *)
let list_heads t row = if t.ob then row else Array.sub row 0 1

let pp_heap_summary fmt t =
  Format.fprintf fmt "lock-free heap: %d size classes x %d processor heaps@,"
    (Sc.count t.classes) t.nheaps_;
  let live_by_class = Hashtbl.create 16 in
  Descriptor.fold_live t.table ~init:() ~f:(fun () d ->
      let a = Rt.Atomic.get d.Descriptor.anchor in
      if Anchor.state a <> Anchor.Empty && d.Descriptor.sb <> Addr.null then begin
        let sc =
          match Sc.class_of_request t.classes (d.Descriptor.sz - 8) with
          | Some sc -> sc
          | None -> -1
        in
        let live, free =
          Option.value (Hashtbl.find_opt live_by_class sc) ~default:(0, 0)
        in
        Hashtbl.replace live_by_class sc (live + 1, free + Anchor.count a)
      end);
  Array.iteri
    (fun sc row ->
      match Hashtbl.find_opt live_by_class sc with
      | None -> ()
      | Some (sbs, free) ->
          let actives =
            Array.fold_left
              (fun n h ->
                if Active_word.is_null (Rt.Atomic.get h.active) then n
                else n + 1)
              0 row
          in
          let slots =
            Array.fold_left
              (fun n h -> if Rt.Atomic.get h.partial = 0 then n else n + 1)
              0 row
          in
          Format.fprintf fmt
            "  class %2d (%4dB): %3d superblocks, %3d active, %3d partial \
             slots, %5d listed, %6d unreserved free blocks@,"
            sc (Sc.block_size t.classes sc) sbs actives slots
            (Array.fold_left
               (fun n h -> n + Partial_list.length h.list)
               0 (list_heads t row))
            free)
    t.heaps;
  let m, f = op_counts t in
  Format.fprintf fmt "  ops: %d mallocs, %d frees@," m f

let check_invariants t =
  (* 0. Page-manager conservation: every span's buddy accounts for all
     of its pages as free or busy. *)
  Option.iter Pm.check_invariants t.pm;
  (* 1. Collect every reference to a descriptor and ensure uniqueness. *)
  let refs : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let active_reserved : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let add_ref id src =
    if id <> 0 then
      match Hashtbl.find_opt refs id with
      | Some prev -> fail "desc %d referenced from both %s and %s" id prev src
      | None -> Hashtbl.add refs id src
  in
  Array.iteri
    (fun sc row ->
      Array.iteri
        (fun h heap ->
          let aw = Rt.Atomic.get heap.active in
          if not (Active_word.is_null aw) then begin
            let id = Active_word.desc_id aw in
            add_ref id (Printf.sprintf "Active[%d][%d]" sc h);
            Hashtbl.replace active_reserved id (Active_word.credits aw + 1)
          end;
          add_ref
            (Rt.Atomic.get heap.partial)
            (Printf.sprintf "Partial[%d][%d]" sc h))
        row)
    t.heaps;
  (* A listed descriptor names the heap that listed it: its own under
     owner bias, one of the class under `Anchor. *)
  Array.iteri
    (fun sc row ->
      Array.iter
        (fun h ->
          let src =
            if t.ob then Printf.sprintf "PartialList[%d][%d]" sc h.idx
            else Printf.sprintf "PartialList[%d]" sc
          in
          List.iter
            (fun d ->
              add_ref d.Descriptor.id src;
              let owner = heap_of_gid t d.Descriptor.heap_gid in
              if owner.sc <> sc || (t.ob && owner != h) then
                fail "desc %d in %s has heap_gid %d" d.Descriptor.id src
                  d.Descriptor.heap_gid)
            (Partial_list.to_list h.list))
        (list_heads t row))
    t.heaps;
  (* Owner-biased mode: each thread's row references the superblock it
     owns per class, and its LIFOs hold distinct small blocks of their
     class, allocated as far as their superblocks know, so on none of
     the free lists walked below. Both are empty under `Anchor. *)
  let owned_ids = Hashtbl.create 8 and kept = Hashtbl.create 8 in
  if t.ob then
    for tid = 0 to Rt.max_threads - 1 do
      let row = ob_row t tid in
      for sc = 0 to Sc.count t.classes - 1 do
        let c = ob_col t sc in
        let id = row.(c) in
        if id <> 0 then begin
          add_ref id (Printf.sprintf "Owned[%d][%d]" tid sc);
          Hashtbl.replace owned_ids id ()
        end;
        let n = row.(c + 1) in
        if n < 0 || n > t.keep then
          fail "thread %d class %d: LIFO length %d out of [0, %d]" tid sc n
            t.keep;
        for i = 0 to n - 1 do
          let base = row.(c + 2 + i) - Prefix.prefix_bytes in
          if Hashtbl.mem kept base then
            fail "block %d kept twice (thread %d, class %d)" base tid sc;
          Hashtbl.add kept base ();
          let prefix = Store.read_word t.store base in
          if
            Prefix.is_large prefix
            || (Descriptor.get t.table (Prefix.desc_id prefix)).Descriptor.sz
               <> Sc.block_size t.classes sc
          then fail "thread %d class %d keeps block %d of another size" tid sc base
        done
      done
    done;
  (* 2. Per-descriptor structural checks. *)
  Descriptor.fold_live t.table ~init:() ~f:(fun () d ->
      let a = Rt.Atomic.get d.Descriptor.anchor in
      let id = d.Descriptor.id in
      match Anchor.state a with
      | Anchor.Empty -> (
          (* Retired or awaiting removal: it may linger only in a
             partial structure, a size class's list or a heap's Partial
             slot. The slot case arises when the free that emptied it
             missed the slot (red.slot_cas) before a FULL->PARTIAL free
             put it there; the next MallocFromPartial to take it retires
             it (Fig. 4 lines 5-6). *)
          let pubw = Rt.Atomic.get d.Descriptor.pub in
          if Pub_word.owned pubw || Pub_word.count pubw > 0 then
            fail "EMPTY desc %d with a live pub word %a" id Pub_word.pp pubw;
          match Hashtbl.find_opt refs id with
          | None -> ()
          | Some src ->
              if not (String.starts_with ~prefix:"Partial" src) then
                fail "EMPTY desc %d referenced from %s" id src)
      | st ->
          if d.Descriptor.sb = Addr.null then
            fail "desc %d in state %s without superblock" id
              (Anchor.state_to_string st);
          let reserved =
            Option.value (Hashtbl.find_opt active_reserved id) ~default:0
          in
          let pubw = Rt.Atomic.get d.Descriptor.pub in
          let owned_here = Hashtbl.mem owned_ids id in
          if Pub_word.owned pubw && not owned_here then
            fail "desc %d: pub word owned but in no thread's owned slot" id;
          if (not (Pub_word.owned pubw)) && Pub_word.count pubw > 0 then
            fail "desc %d: unowned pub word holds %d blocks" id
              (Pub_word.count pubw);
          if owned_here then begin
            if not (Pub_word.owned pubw) then
              fail "owned desc %d: pub word not marked owned" id;
            if st <> Anchor.Full then
              fail "owned desc %d: anchor %s, want FULL" id
                (Anchor.state_to_string st)
          end;
          (match st with
          | Anchor.Active ->
              if reserved = 0 then
                fail "ACTIVE desc %d not installed in any heap" id
          | Anchor.Full ->
              if Anchor.count a <> 0 then fail "FULL desc %d with count>0" id;
              (* Owner-biased mode: a FULL anchor is exactly the
                 frozen state of an owned superblock, so an [Owned]
                 reference is legal; anything else is the bug the
                 check has always caught. *)
              (match Hashtbl.find_opt refs id with
              | Some src
                when not (String.length src >= 5 && String.sub src 0 5 = "Owned")
                ->
                  fail "FULL desc %d referenced from %s" id src
              | _ -> ())
          | Anchor.Partial ->
              if Anchor.count a = 0 then fail "PARTIAL desc %d with count=0" id;
              if reserved > 0 then
                fail "PARTIAL desc %d installed as an active superblock" id;
              if not (Hashtbl.mem refs id) then
                fail "PARTIAL desc %d unreachable" id
          | Anchor.Empty -> assert false);
          let priv_n = if owned_here then d.Descriptor.priv_count else 0 in
          let pub_n = Pub_word.count pubw in
          let free_n = Anchor.count a + reserved in
          if free_n + priv_n + pub_n > d.Descriptor.maxcount then
            fail "desc %d: %d free blocks > maxcount %d" id
              (free_n + priv_n + pub_n)
              d.Descriptor.maxcount;
          (* Walk every free list: the anchor's, and in owner-biased
             mode the private LIFO and the public list, which
             together must cover disjoint blocks. *)
          let seen = Array.make d.Descriptor.maxcount false in
          let walk what head n =
            let idx = ref head in
            for step = 1 to n do
              if !idx < 0 || !idx >= d.Descriptor.maxcount then
                fail "desc %d: %s index %d out of range at step %d" id what
                  !idx step;
              if seen.(!idx) then
                fail "desc %d: %s revisits block %d" id what !idx;
              seen.(!idx) <- true;
              let addr = d.Descriptor.sb + (!idx * d.Descriptor.sz) in
              if Hashtbl.mem kept addr then
                fail "desc %d: kept block %d on the %s" id !idx what;
              idx := Store.read_word t.store addr
            done
          in
          walk "free-list" (Anchor.avail a) free_n;
          if priv_n > 0 then walk "private-list" d.Descriptor.priv_head priv_n;
          if pub_n > 0 then walk "public-list" (Pub_word.head pubw) pub_n;
          (* Every block not on the free list is allocated and must carry
             this descriptor in its prefix. *)
          for i = 0 to d.Descriptor.maxcount - 1 do
            if not seen.(i) then begin
              let p =
                Store.read_word t.store
                  (d.Descriptor.sb + (i * d.Descriptor.sz))
              in
              if Prefix.is_large p || Prefix.desc_id p <> id then
                fail "desc %d: allocated block %d has corrupt prefix" id i
            end
          done)

let instance ?name:(n = name) vrt t =
  Store.instance (store t) ~name:n ~rt:vrt ~malloc:(malloc t)
    ~free:(free t) ~usable_size:(usable_size t)
    ~check:(fun () -> check_invariants t)
