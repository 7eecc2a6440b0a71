(** Baseline 1: a libc-style serial allocator behind one global lock —
    the paper's "default AIX 5.1 libc malloc" comparison point.

    One heap, one pthread-style mutex around every operation, and
    relatively heavy per-operation bookkeeping (general-purpose allocators
    maintain boundary tags, bins and coalescing state). Scales not at all;
    its single-thread latency is the denominator of every speedup the
    paper reports. *)

module Cfg = Mm_mem.Alloc_config
module Prefix = Mm_mem.Block_prefix
module Addr = Mm_mem.Addr

type t = { ctx : Sb_heap.ctx; heap : Sb_heap.heap }

let name = "libc"

(* Heavier bookkeeping than the purpose-built multithread allocators. *)
let op_overhead = 120

let create rt (cfg : Cfg.t) =
  let ctx = Sb_heap.create_ctx rt cfg ~op_overhead in
  (* The stock libc lock is a kernel-assisted mutex regardless of the
     configured baseline lock kind. *)
  let heap = Sb_heap.create_heap ctx ~lock_kind:Cfg.Pthread_like in
  { ctx; heap }

let rt t = Sb_heap.rt t.ctx
let store t = Sb_heap.store t.ctx

let malloc t n =
  if n < 0 then invalid_arg "Libc_alloc.malloc: negative size";
  Sb_heap.charge_overhead t.ctx;
  match Sb_heap.class_of_request t.ctx n with
  | None -> Sb_heap.large_malloc t.ctx n
  | Some sc ->
      Locks.with_lock (Sb_heap.heap_lock t.heap) (fun () ->
          match Sb_heap.pop_block t.ctx t.heap sc with
          | Some payload -> payload
          | None ->
              ignore (Sb_heap.new_superblock t.ctx t.heap sc);
              (match Sb_heap.pop_block t.ctx t.heap sc with
              | Some payload -> payload
              | None -> assert false))

let usable_size t payload = Sb_heap.usable_size t.ctx payload

let free t payload =
  if payload = Addr.null then ()
  else begin
    Sb_heap.charge_overhead t.ctx;
    let st = Sb_heap.store t.ctx in
    let word = Store.read_word st (payload - Prefix.prefix_bytes) in
    let payload = Store.base_payload payload word in
    let prefix = Store.base_prefix st ~base_payload:payload word in
    let base = payload - Prefix.prefix_bytes in
    if Prefix.is_large prefix then Sb_heap.large_free t.ctx base
    else
      Locks.with_lock (Sb_heap.heap_lock t.heap) (fun () ->
          let d = Sb_heap.sdesc_of_prefix t.ctx prefix in
          match Sb_heap.push_block t.ctx d payload with
          | `Stays -> ()
          | `Superblock_empty ->
              Sb_heap.maybe_release t.ctx t.heap d ~surplus:1)
  end

let check_invariants t = Sb_heap.check_heap_invariants t.ctx t.heap

let instance ?name:(n = name) vrt t =
  Store.instance (store t) ~name:n ~rt:vrt ~malloc:(malloc t)
    ~free:(free t) ~usable_size:(usable_size t)
    ~check:(fun () -> check_invariants t)
