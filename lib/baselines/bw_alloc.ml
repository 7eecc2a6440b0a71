(* Blelloch & Wei's constant-time fixed-size allocation scheme, scaled
   down to a comparison allocator: per thread and size class, a private
   allocation list and a private free list of at most B blocks each
   (plain field writes, O(1), no atomics), balanced through one shared
   lock-free Treiber stack of exactly-B-block batches. Every malloc and
   free is O(1) except the 1-in-B batch hand-offs (one stack CAS) and
   the carving of a fresh superblock when the whole system is out of
   blocks. The class prefix is written once per block at carve time and
   never again — free blocks link through their *payload* words, so the
   malloc hot path is a single link read with no store write. A batch
   may mix blocks of many superblocks; superblocks are never returned
   to the OS (the scheme trades space for constant time, like the
   reuse-in-place descriptor pool it accompanies — DESIGN.md §17). *)

module Cfg = Mm_mem.Alloc_config
module Addr = Mm_mem.Addr
module Sc = Mm_mem.Size_class
module Prefix = Mm_mem.Block_prefix
module Ts = Treiber_stack

type t = {
  rt : Rt.t;
  store : Store.t;
  classes : Sc.t;
  nclasses : int;
  batch : int array;  (* B per size class *)
  shared : int Ts.t array;  (* per class: heads of exactly-B-block batches *)
  (* Private lists, indexed tid * nclasses + sc; heads are block base
     addresses chained through the blocks' own words, Addr.null = empty. *)
  alloc_head : int array;
  alloc_len : int array;
  free_head : int array;
  free_len : int array;
  mallocs : int array;
  frees : int array;
}

let name = "bw"

(* Batch size B: the constant that bounds both the private lists and the
   amortization period of the shared-stack CAS. *)
let batch_cap = 16

let create rt (cfg : Cfg.t) =
  let classes = Sc.make ~sbsize:cfg.sbsize () in
  let nclasses = Sc.count classes in
  {
    rt;
    store =
      Store.create rt ~capacity:cfg.store_capacity ~sbsize:cfg.sbsize
        ~hyperblocks:cfg.hyperblocks ();
    classes;
    nclasses;
    batch =
      Array.init nclasses (fun sc ->
          min batch_cap (Sc.blocks_per_superblock classes sc));
    shared = Array.init nclasses (fun _ -> Ts.create rt);
    alloc_head = Array.make (Rt.max_threads * nclasses) Addr.null;
    alloc_len = Array.make (Rt.max_threads * nclasses) 0;
    free_head = Array.make (Rt.max_threads * nclasses) Addr.null;
    free_len = Array.make (Rt.max_threads * nclasses) 0;
    mallocs = Array.make Rt.max_threads 0;
    frees = Array.make Rt.max_threads 0;
  }

let rt t = t.rt
let store t = t.store

(* Carve a fresh superblock into batches: the first batch (plus the
   sub-B remainder) becomes the thread's allocation list, the other
   full batches go on the shared stack. O(maxcount), amortized over the
   maxcount allocations it enables — exactly init_free_list's cost in
   the other allocators. Each block's class prefix is stamped here,
   once, for its whole life; the free-list links live one word past it
   (the payload word), so neither malloc nor free ever rewrites the
   prefix. *)
let link_off = Prefix.prefix_bytes

let carve t k sc =
  let sz = Sc.block_size t.classes sc in
  let maxcount = Sc.blocks_per_superblock t.classes sc in
  let b = t.batch.(sc) in
  let sb = Store.alloc_superblock t.store in
  let addr i = sb + (i * sz) in
  for i = 0 to maxcount - 1 do
    Store.write_word t.store (addr i) (Prefix.small ~desc_id:(sc + 1))
  done;
  let chain lo hi =
    (* link blocks [lo, hi] in address order, null-terminated *)
    for i = lo to hi - 1 do
      Store.write_word t.store (addr i + link_off) (addr (i + 1))
    done;
    Store.write_word t.store (addr hi + link_off) Addr.null
  in
  let full = maxcount / b in
  if full = 0 then begin
    chain 0 (maxcount - 1);
    t.alloc_head.(k) <- addr 0;
    t.alloc_len.(k) <- maxcount
  end
  else begin
    for j = 1 to full - 1 do
      chain (j * b) ((j * b) + b - 1);
      Ts.push t.shared.(sc) (addr (j * b))
    done;
    let rem = maxcount - (full * b) in
    chain 0 (b - 1);
    if rem > 0 then begin
      chain (full * b) (maxcount - 1);
      (* splice the remainder behind the kept batch *)
      Store.write_word t.store (addr (b - 1) + link_off) (addr (full * b))
    end;
    t.alloc_head.(k) <- addr 0;
    t.alloc_len.(k) <- b + rem
  end

let refill t k sc =
  if t.free_len.(k) > 0 then begin
    (* cheapest source: adopt the thread's own free list wholesale *)
    t.alloc_head.(k) <- t.free_head.(k);
    t.alloc_len.(k) <- t.free_len.(k);
    t.free_head.(k) <- Addr.null;
    t.free_len.(k) <- 0
  end
  else
    match Ts.pop t.shared.(sc) with
    | Some head ->
        t.alloc_head.(k) <- head;
        t.alloc_len.(k) <- t.batch.(sc)
    | None -> carve t k sc

let large_malloc t n =
  let len = n + Prefix.prefix_bytes in
  let base = Store.alloc_large t.store ~len in
  Store.write_word t.store base (Prefix.large ~total_len:len);
  base + Prefix.prefix_bytes

let malloc t n =
  if n < 0 then invalid_arg "Bw_alloc.malloc: negative size";
  let tid = Rt.self t.rt in
  t.mallocs.(tid) <- t.mallocs.(tid) + 1;
  match Sc.class_of_request t.classes n with
  | None -> large_malloc t n
  | Some sc ->
      let k = (tid * t.nclasses) + sc in
      if t.alloc_len.(k) = 0 then refill t k sc;
      let base = t.alloc_head.(k) in
      (* the prefix was stamped at carve time; just unlink and return *)
      t.alloc_head.(k) <- Store.read_word t.store (base + link_off);
      t.alloc_len.(k) <- t.alloc_len.(k) - 1;
      base + Prefix.prefix_bytes

let free t payload =
  if payload = Addr.null then ()
  else begin
    let tid = Rt.self t.rt in
    t.frees.(tid) <- t.frees.(tid) + 1;
    let base = payload - Prefix.prefix_bytes in
    let prefix = Store.read_word t.store base in
    if Prefix.is_large prefix then Store.free_large t.store base
    else begin
      let sc = Prefix.desc_id prefix - 1 in
      if sc < 0 || sc >= t.nclasses then
        invalid_arg "Bw_alloc.free: corrupt block prefix";
      let k = (tid * t.nclasses) + sc in
      Store.write_word t.store (base + link_off) t.free_head.(k);
      t.free_head.(k) <- base;
      t.free_len.(k) <- t.free_len.(k) + 1;
      if t.free_len.(k) = t.batch.(sc) then begin
        (* exactly B blocks: publish the batch in one CAS *)
        Ts.push t.shared.(sc) t.free_head.(k);
        t.free_head.(k) <- Addr.null;
        t.free_len.(k) <- 0
      end
    end
  end

let usable_size t payload =
  let prefix = Store.read_word t.store (payload - Prefix.prefix_bytes) in
  if Prefix.is_large prefix then Prefix.large_len prefix - Prefix.prefix_bytes
  else begin
    let sc = Prefix.desc_id prefix - 1 in
    if sc < 0 || sc >= t.nclasses then
      invalid_arg "Bw_alloc.usable_size: corrupt block prefix";
    Sc.block_size t.classes sc - Prefix.prefix_bytes
  end

let op_counts t =
  (Array.fold_left ( + ) 0 t.mallocs, Array.fold_left ( + ) 0 t.frees)

let fail fmt = Format.kasprintf failwith fmt

(* Quiescent: every free block is on exactly one list, every chain is
   null-terminated with the bookkept length, every shared batch holds
   exactly B blocks, and every free block still carries the class
   prefix stamped at carve time (links go through the payload word, so
   a list operation that clobbered a prefix is a bug). *)
let check_invariants t =
  let seen : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let walk src ~sc head expect =
    let n = ref 0 in
    let cur = ref head in
    while !cur <> Addr.null do
      (match Hashtbl.find_opt seen !cur with
      | Some prev -> fail "block %d on both %s and %s" !cur prev src
      | None -> Hashtbl.add seen !cur src);
      let prefix = Store.read_word t.store !cur in
      if prefix <> Prefix.small ~desc_id:(sc + 1) then
        fail "%s: block %d prefix clobbered (class %d)" src !cur sc;
      incr n;
      if !n > expect then fail "%s: chain longer than bookkept %d" src expect;
      cur := Store.read_word t.store (!cur + link_off)
    done;
    if !n <> expect then fail "%s: chain has %d blocks, bookkept %d" src !n expect
  in
  for sc = 0 to t.nclasses - 1 do
    List.iteri
      (fun i head ->
        walk (Printf.sprintf "shared[%d]#%d" sc i) ~sc head t.batch.(sc))
      (Ts.to_list t.shared.(sc))
  done;
  for k = 0 to Array.length t.alloc_head - 1 do
    let sc = k mod t.nclasses in
    walk (Printf.sprintf "alloc[%d]" k) ~sc t.alloc_head.(k) t.alloc_len.(k);
    walk (Printf.sprintf "free[%d]" k) ~sc t.free_head.(k) t.free_len.(k)
  done

let instance ?name:(n = name) vrt t =
  Store.instance (store t) ~name:n ~rt:vrt ~malloc:(malloc t)
    ~free:(free t) ~usable_size:(usable_size t)
    ~check:(fun () -> check_invariants t)
