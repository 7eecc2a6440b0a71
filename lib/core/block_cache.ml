module Cfg = Mm_mem.Alloc_config
module Addr = Mm_mem.Addr
module Sc = Mm_mem.Size_class
module Prefix = Mm_mem.Block_prefix

(* Per-thread state. Strictly single-owner: only the thread with the
   matching dense id ever touches its row, so there is no CAS and no
   retry window anywhere in this file — the only shared-structure
   operations are the batched Lf_alloc calls, which are lock-free.
   Every per-thread word, statistics and cache alike, lives in the
   thread's padded [Stripes] row (DESIGN.md §18): the hit and free
   paths write the class's stack length and a stack slot on every
   operation, and no other thread's hot word may share their line. *)
type stats = {
  hits : int;
  misses : int;
  refills : int;
  refilled_blocks : int;
  flushes : int;
  flushed_blocks : int;
  remote_frees : int;
}

type t = {
  backend : Lf_alloc.t;
  rt : Rt.t;
  cfg : Cfg.t;
  nclasses : int;
  state : Stripes.t;  (* one row per thread, columns below *)
  c_remote : int;  (* first slot of the remote buffer *)
  c_staging : int;  (* first slot of the flush staging slice *)
  c_scratch : int;  (* first slot of the flush scratch slice *)
  c_stacks : int;  (* first slot of class 0's stack *)
}

(* Row layout: the statistics, the remote buffer's length, one stack
   length per size class, the mixed-class buffer of remote-heap
   payloads ([cache_batch] slots), the staging slice a stack's flushed
   blocks move to before the push and the scratch slice
   [Lf_alloc.flush_from] groups a batch in ([cache_blocks] slots
   each, the largest batch), then one LIFO of base payloads per size
   class ([cache_blocks] slots each). *)
let c_hits = 0
let c_misses = 1
let c_refills = 2
let c_refilled_blocks = 3
let c_flushes = 4
let c_flushed_blocks = 5
let c_remote_frees = 6
let c_mallocs = 7
let c_frees = 8
let c_remote_len = 9
let c_lens = 10

let name = "new-cached"

let create rt (cfg : Cfg.t) =
  if not cfg.cache then invalid_arg "Block_cache.create: cfg.cache is false";
  if cfg.free_lists = `Owner_biased then
    invalid_arg
      "Block_cache.create: owner-biased free lists carry their own \
       thread-local layer";
  let backend = Lf_alloc.create rt cfg in
  let nclasses = Sc.count (Lf_alloc.size_classes backend) in
  let c_remote = c_lens + nclasses in
  let c_staging = c_remote + cfg.cache_batch in
  let c_scratch = c_staging + cfg.cache_blocks in
  let c_stacks = c_scratch + cfg.cache_blocks in
  {
    backend;
    rt;
    cfg;
    nclasses;
    state =
      Stripes.create ~threads:Rt.max_threads
        ~columns:(c_stacks + (nclasses * cfg.cache_blocks));
    c_remote;
    c_staging;
    c_scratch;
    c_stacks;
  }

let backend t = t.backend
let rt t = t.rt
let store t = Lf_alloc.store t.backend
let usable_size t payload = Lf_alloc.usable_size t.backend payload

(* Entry points resolve [Rt.self] once (a domain-local lookup on the
   real runtime) and work on that thread's row. *)
let[@inline] row t tid = Stripes.row t.state tid
(* [int array], not ['a array]: a polymorphic row would compile every
   access to the generic array primitives (a float-array test per
   load, [caml_modify] per store). [@inline] keeps the ten or so
   accesses of a hit or a free out of function calls. *)
let[@inline] at c = Stripes.pad + c
let[@inline] get (row : int array) c = row.(at c)
let[@inline] set (row : int array) c v = row.(at c) <- v
let[@inline] add row c n = set row c (get row c + n)
let[@inline] len row sc = get row (c_lens + sc)
let[@inline] set_len row sc n = set row (c_lens + sc) n
let[@inline] slot t sc i = t.c_stacks + (sc * t.cfg.cache_blocks) + i

let[@inline] push t row sc p =
  let n = len row sc in
  set row (slot t sc n) p;
  set_len row sc (n + 1)

let malloc t n =
  if n < 0 then invalid_arg "Lf_alloc.malloc: negative size";
  let row = row t (Rt.self t.rt) in
  add row c_mallocs 1;
  match Sc.class_of_request (Lf_alloc.size_classes t.backend) n with
  | None -> Lf_alloc.malloc t.backend n
  | Some sc ->
      let k = len row sc in
      if k > 0 then begin
        (* Hit: pure thread-local pop, zero shared accesses. *)
        add row c_hits 1;
        Rt.obs_event t.rt Rt.Obs.Transition "bc.hit";
        set_len row sc (k - 1);
        get row (slot t sc (k - 1))
      end
      else begin
        add row c_misses 1;
        Rt.obs_event t.rt Rt.Obs.Transition "bc.miss";
        (* The batch lands in the (empty) stack itself, its first block
           on top. *)
        let k =
          Lf_alloc.refill_into t.backend ~sc ~max:t.cfg.cache_batch row
            ~pos:(at (slot t sc 0))
        in
        if k = 0 then
          (* No active superblock: the ordinary Fig. 4 slow paths
             (partial / new superblock) install one. *)
          Lf_alloc.malloc t.backend n
        else begin
          add row c_refills 1;
          add row c_refilled_blocks k;
          Rt.obs_event t.rt Rt.Obs.Transition "bc.refill";
          set_len row sc (k - 1);
          get row (slot t sc (k - 1))
        end
      end

let flush_remote t row =
  let n = get row c_remote_len in
  if n > 0 then begin
    add row c_flushes 1;
    add row c_flushed_blocks n;
    Rt.obs_event t.rt Rt.Obs.Transition "bc.flush";
    set row c_remote_len 0;
    Lf_alloc.flush_from t.backend row ~pos:(at t.c_remote) ~n
      ~scratch:(at t.c_scratch)
  end

(* Flush class [sc]'s [k] oldest (bottom-of-stack) blocks and slide
   the rest down, so the most recently freed — hottest in cache —
   stay. The blocks leave the stack before the push: they are copied
   to the staging slice and the stack shrinks first, so a thread
   killed inside the push holds none of them, and a thread later
   reusing its id cannot free them a second time. *)
let flush_bottom t row sc k =
  add row c_flushes 1;
  add row c_flushed_blocks k;
  Rt.obs_event t.rt Rt.Obs.Transition "bc.flush";
  let n = len row sc in
  for i = 0 to k - 1 do
    set row (t.c_staging + i) (get row (slot t sc i))
  done;
  for i = 0 to n - k - 1 do
    set row (slot t sc i) (get row (slot t sc (k + i)))
  done;
  set_len row sc (n - k);
  Lf_alloc.flush_from t.backend row ~pos:(at t.c_staging) ~n:k
    ~scratch:(at t.c_scratch)

let free t payload =
  if payload = Addr.null then ()
  else begin
    let tid = Rt.self t.rt in
    let row = row t tid in
    add row c_frees 1;
    let prefix = Store.read_word (store t) (payload - Prefix.prefix_bytes) in
    let kind = Lf_alloc.classify t.backend ~tid ~payload prefix in
    if kind < 0 then Lf_alloc.free_large t.backend ~tid ~payload prefix
    else begin
      let sc = kind lsr 1 in
      if kind land 1 = 1 then begin
        (* Overflow eviction. *)
        if len row sc = t.cfg.cache_blocks then
          flush_bottom t row sc t.cfg.cache_batch;
        push t row sc payload
      end
      else begin
        (* Remote block: never cache another heap's blocks (they would
           be handed out by the wrong heap's threads and defeat the
           paper's heap affinity); buffer and push back in batches. *)
        add row c_remote_frees 1;
        let n = get row c_remote_len in
        set row (t.c_remote + n) payload;
        set row c_remote_len (n + 1);
        if n + 1 = t.cfg.cache_batch then flush_remote t row
      end
    end
  end

let flush_current t =
  let row = row t (Rt.self t.rt) in
  for sc = 0 to t.nclasses - 1 do
    let n = len row sc in
    if n > 0 then flush_bottom t row sc n
  done;
  flush_remote t row

let stats t : stats =
  let total = Stripes.total t.state in
  {
    hits = total c_hits;
    misses = total c_misses;
    refills = total c_refills;
    refilled_blocks = total c_refilled_blocks;
    flushes = total c_flushes;
    flushed_blocks = total c_flushed_blocks;
    remote_frees = total c_remote_frees;
  }

let op_counts t =
  (Stripes.total t.state c_mallocs, Stripes.total t.state c_frees)

let cached_blocks t =
  let n = ref (Stripes.total t.state c_remote_len) in
  for sc = 0 to t.nclasses - 1 do
    n := !n + Stripes.total t.state (c_lens + sc)
  done;
  !n

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  (* Frontend structure: lengths in range, every cached payload unique
     (a double free could smuggle a duplicate in, which would become a
     double allocation on two later hits), and every cached payload
     carries a small-block prefix of the class it is filed under. Then
     the backend's full invariants — cached blocks count as allocated
     there, so nothing below can reclaim their superblocks. *)
  let classes = Lf_alloc.size_classes t.backend in
  let st = store t in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let check_block ~tid ~where p =
    if Hashtbl.mem seen p then
      fail "block cache: payload %d cached twice (thread %d, %s)" p tid where;
    Hashtbl.add seen p ();
    let prefix = Store.read_word st (p - Prefix.prefix_bytes) in
    if Prefix.is_large prefix then
      fail "block cache: large block %d cached (thread %d, %s)" p tid where
  in
  for tid = 0 to Rt.max_threads - 1 do
    let row = row t tid in
    for sc = 0 to t.nclasses - 1 do
      let len = len row sc in
      if len < 0 || len > t.cfg.cache_blocks then
        fail "block cache: thread %d class %d length %d out of [0, %d]" tid
          sc len t.cfg.cache_blocks;
      for i = 0 to len - 1 do
        let p = get row (slot t sc i) in
        check_block ~tid ~where:(Printf.sprintf "class %d" sc) p;
        let prefix = Store.read_word st (p - Prefix.prefix_bytes) in
        let d =
          Descriptor.get (Lf_alloc.descriptor_table t.backend)
            (Prefix.desc_id prefix)
        in
        if d.Descriptor.sz <> Sc.block_size classes sc then
          fail
            "block cache: thread %d class %d holds a %d-byte block \
             (expected %d)"
            tid sc d.Descriptor.sz
            (Sc.block_size classes sc)
      done
    done;
    let remote_len = get row c_remote_len in
    if remote_len < 0 || remote_len > t.cfg.cache_batch then
      fail "block cache: thread %d remote buffer length %d out of [0, %d]"
        tid remote_len t.cfg.cache_batch;
    for i = 0 to remote_len - 1 do
      check_block ~tid ~where:"remote buffer"
        (get row (t.c_remote + i))
    done
  done;
  Lf_alloc.check_invariants t.backend

let instance ?name:(n = name) vrt t =
  Store.instance (store t) ~name:n ~rt:vrt ~malloc:(malloc t)
    ~free:(free t) ~usable_size:(usable_size t)
    ~check:(fun () -> check_invariants t)
