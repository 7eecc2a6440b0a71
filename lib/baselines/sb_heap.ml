module Ts = Treiber_stack

module Cfg = Mm_mem.Alloc_config
module Addr = Mm_mem.Addr
module Sc = Mm_mem.Size_class
module Prefix = Mm_mem.Block_prefix

module Sdesc = struct
  type t = {
    id : int;
    lock : Locks.t;
    line : int;  (* cache line of the descriptor's hot fields *)
    mutable sb : int;
    mutable sz : int;
    mutable maxcount : int;
    mutable avail : int;
    mutable count : int;
    mutable owner : int;
    mutable sc : int;
  }
end

type ctx = {
  rt : Rt.t;
  store : Store.t;
  classes : Sc.t;
  op_overhead : int;
  slots : Sdesc.t option Rt.atomic array;
  next_id : int Rt.atomic;
  free_ids : int Ts.t;
  heap_slots : heap option Rt.atomic array;  (* uid -> heap registry *)
  heap_count : int Rt.atomic;
}

and heap = {
  uid : int;
  hlock : Locks.t;
  hline : int;  (* cache line of the heap's lists and statistics *)
  partial : Sdesc.t list ref array;  (* per class, MRU first *)
  mutable h_free_blocks : int;
  mutable h_total_blocks : int;
}

let create_ctx rt (cfg : Cfg.t) ~op_overhead =
  {
    rt;
    store =
      Store.create rt ~capacity:cfg.store_capacity ~sbsize:cfg.sbsize
        ~hyperblocks:cfg.hyperblocks ();
    classes = Sc.make ~sbsize:cfg.sbsize ();
    op_overhead;
    slots =
      Array.init (2 * cfg.store_capacity) (fun _ -> Rt.Atomic.make rt None);
    next_id = Rt.Atomic.make rt 1;
    free_ids = Ts.create rt;
    heap_slots = Array.init 256 (fun _ -> Rt.Atomic.make rt None);
    heap_count = Rt.Atomic.make rt 0;
  }

let rt ctx = ctx.rt
let store ctx = ctx.store
let classes ctx = ctx.classes
let charge_overhead ctx = Rt.work ctx.rt ctx.op_overhead

let create_heap ctx ~lock_kind =
  let uid = Rt.Atomic.fetch_and_add ctx.heap_count 1 in
  if uid >= Array.length ctx.heap_slots then
    failwith "Sb_heap: too many heaps";
  let heap =
    {
      uid;
      hlock = Locks.create ctx.rt lock_kind;
      hline = Rt.fresh_line ();
      partial = Array.init (Sc.count ctx.classes) (fun _ -> ref []);
      h_free_blocks = 0;
      h_total_blocks = 0;
    }
  in
  Rt.Atomic.set ctx.heap_slots.(uid) (Some heap);
  heap

let heap_uid h = h.uid
let heap_lock h = h.hlock

let heap_of_uid ctx uid =
  if uid < 0 || uid >= Array.length ctx.heap_slots then
    invalid_arg "Sb_heap.heap_of_uid: unknown heap";
  match Rt.Atomic.get ctx.heap_slots.(uid) with
  | Some h -> h
  | None -> invalid_arg "Sb_heap.heap_of_uid: unknown heap"

let sdesc_of_prefix ctx prefix =
  let id = Prefix.desc_id prefix in
  if id < 1 || id >= Array.length ctx.slots then
    invalid_arg "Sb_heap: corrupt block prefix";
  match Rt.Atomic.get ctx.slots.(id) with
  | Some d -> d
  | None -> invalid_arg "Sb_heap: block prefix names a dead descriptor"

let class_of_request ctx n = Sc.class_of_request ctx.classes n

let usable_size ctx payload =
  let word = Store.read_word ctx.store (payload - Prefix.prefix_bytes) in
  let base_payload = Store.base_payload payload word in
  let prefix = Store.base_prefix ctx.store ~base_payload word in
  let base =
    if Prefix.is_large prefix then
      Prefix.large_len prefix - Prefix.prefix_bytes
    else (sdesc_of_prefix ctx prefix).Sdesc.sz - Prefix.prefix_bytes
  in
  base - (payload - base_payload)

let large_malloc ctx n =
  let len = n + Prefix.prefix_bytes in
  let base = Store.alloc_large ctx.store ~len in
  Store.write_word ctx.store base (Prefix.large ~total_len:len);
  base + Prefix.prefix_bytes

let large_free ctx base = Store.free_large ctx.store base

(* ------------------------------------------------------------------ *)
(* Superblock lifecycle. Caller holds the owning heap's lock. *)

let fresh_id ctx =
  match Ts.pop ctx.free_ids with
  | Some id -> id
  | None ->
      let id = Rt.Atomic.fetch_and_add ctx.next_id 1 in
      if id >= Array.length ctx.slots then
        failwith "Sb_heap: descriptor table exhausted";
      id

let new_superblock ctx heap sc =
  let sz = Sc.block_size ctx.classes sc in
  let maxcount = Sc.blocks_per_superblock ctx.classes sc in
  let sb = Store.alloc_superblock ctx.store in
  Store.init_free_list ctx.store sb ~sz ~maxcount;
  let d =
    {
      Sdesc.id = fresh_id ctx;
      lock = Locks.create ctx.rt Cfg.Tas_backoff;
      line = Rt.fresh_line ();
      sb;
      sz;
      maxcount;
      avail = 0;
      count = maxcount;
      owner = heap.uid;
      sc;
    }
  in
  Rt.Atomic.set ctx.slots.(d.Sdesc.id) (Some d);
  heap.partial.(sc) := d :: !(heap.partial.(sc));
  heap.h_free_blocks <- heap.h_free_blocks + maxcount;
  heap.h_total_blocks <- heap.h_total_blocks + maxcount;
  d

let remove_from_list heap (d : Sdesc.t) =
  let cell = heap.partial.(d.sc) in
  cell := List.filter (fun x -> x != d) !cell

let release_superblock ctx heap (d : Sdesc.t) =
  remove_from_list heap d;
  heap.h_free_blocks <- heap.h_free_blocks - d.Sdesc.count;
  heap.h_total_blocks <- heap.h_total_blocks - d.Sdesc.maxcount;
  Store.free_superblock ctx.store d.Sdesc.sb;
  Rt.Atomic.set ctx.slots.(d.Sdesc.id) None;
  Ts.push ctx.free_ids d.Sdesc.id

let detach_superblock _ctx heap (d : Sdesc.t) =
  remove_from_list heap d;
  heap.h_free_blocks <- heap.h_free_blocks - d.Sdesc.count;
  heap.h_total_blocks <- heap.h_total_blocks - d.Sdesc.maxcount

let attach_superblock _ctx heap (d : Sdesc.t) =
  d.Sdesc.owner <- heap.uid;
  if d.Sdesc.count > 0 then heap.partial.(d.sc) := d :: !(heap.partial.(d.sc));
  heap.h_free_blocks <- heap.h_free_blocks + d.Sdesc.count;
  heap.h_total_blocks <- heap.h_total_blocks + d.Sdesc.maxcount

let take_superblock ctx heap sc =
  match !(heap.partial.(sc)) with
  | [] -> None
  | l ->
      let best =
        List.fold_left
          (fun acc d ->
            if d.Sdesc.count > acc.Sdesc.count then d else acc)
          (List.hd l) l
      in
      detach_superblock ctx heap best;
      Some best

let empty_superblocks _ctx heap sc =
  List.filter (fun d -> d.Sdesc.count = d.Sdesc.maxcount) !(heap.partial.(sc))

(* ------------------------------------------------------------------ *)
(* Block pop / push. *)

let pop_block ctx heap sc =
  match !(heap.partial.(sc)) with
  | [] -> None
  | d :: rest ->
      (* The heap's lists/stats and the descriptor's hot fields migrate
         to the operating CPU — the coherence traffic that makes a
         single-lock allocator degrade, not just serialize (paper Fig.
         8(a), libc below 1.0). The lock-free allocator pays the
         equivalent costs through its Anchor/Active atomics. *)
      Rt.touch ctx.rt ~line:heap.hline ~write:true;
      Rt.touch ctx.rt ~line:d.Sdesc.line ~write:true;
      let base = d.Sdesc.sb + (d.Sdesc.avail * d.Sdesc.sz) in
      d.Sdesc.avail <- Store.read_word ctx.store base;
      d.Sdesc.count <- d.Sdesc.count - 1;
      heap.h_free_blocks <- heap.h_free_blocks - 1;
      if d.Sdesc.count = 0 then heap.partial.(sc) := rest;
      Store.write_word ctx.store base (Prefix.small ~desc_id:d.Sdesc.id);
      Some (base + Prefix.prefix_bytes)

let push_block ctx (d : Sdesc.t) payload =
  Rt.touch ctx.rt ~line:d.Sdesc.line ~write:true;
  let base = payload - Prefix.prefix_bytes in
  Store.write_word ctx.store base d.Sdesc.avail;
  d.Sdesc.avail <- (base - d.Sdesc.sb) / d.Sdesc.sz;
  d.Sdesc.count <- d.Sdesc.count + 1;
  let heap = heap_of_uid ctx d.Sdesc.owner in
  Rt.touch ctx.rt ~line:heap.hline ~write:true;
  heap.h_free_blocks <- heap.h_free_blocks + 1;
  if d.Sdesc.count = 1 then heap.partial.(d.sc) := d :: !(heap.partial.(d.sc));
  if d.Sdesc.count = d.Sdesc.maxcount then `Superblock_empty else `Stays

let maybe_release ctx heap (d : Sdesc.t) ~surplus =
  (* Real dlmalloc-family allocators do not unmap a region the moment it
     empties; keep up to [surplus] empty superblocks per class cached in
     the heap. *)
  let empties =
    List.filter
      (fun (x : Sdesc.t) -> x.count = x.maxcount)
      !(heap.partial.(d.Sdesc.sc))
  in
  if List.length empties > surplus then release_superblock ctx heap d

let free_blocks heap = heap.h_free_blocks
let total_blocks heap = heap.h_total_blocks

(* ------------------------------------------------------------------ *)

let fail fmt = Format.kasprintf failwith fmt

let check_heap_invariants ctx heap =
  let free = ref 0 and total = ref 0 in
  (* Superblocks fully allocated are not on any list; find every
     superblock owned by this heap through the descriptor table. *)
  Array.iter
    (fun slot ->
      match Rt.Atomic.get slot with
      | Some d when d.Sdesc.owner = heap.uid ->
          free := !free + d.Sdesc.count;
          total := !total + d.Sdesc.maxcount;
          let on_list = List.memq d !(heap.partial.(d.Sdesc.sc)) in
          if d.Sdesc.count > 0 && not on_list then
            fail "sdesc %d has free blocks but is not listed" d.Sdesc.id;
          if d.Sdesc.count = 0 && on_list then
            fail "sdesc %d is full but still listed" d.Sdesc.id;
          let seen = Array.make d.Sdesc.maxcount false in
          let idx = ref d.Sdesc.avail in
          for step = 1 to d.Sdesc.count do
            if !idx < 0 || !idx >= d.Sdesc.maxcount then
              fail "sdesc %d: bad free index %d at step %d" d.Sdesc.id !idx
                step;
            if seen.(!idx) then
              fail "sdesc %d: free list cycles at %d" d.Sdesc.id !idx;
            seen.(!idx) <- true;
            idx :=
              Store.read_word ctx.store (d.Sdesc.sb + (!idx * d.Sdesc.sz))
          done;
          for i = 0 to d.Sdesc.maxcount - 1 do
            if not seen.(i) then begin
              let p =
                Store.read_word ctx.store (d.Sdesc.sb + (i * d.Sdesc.sz))
              in
              if Prefix.is_large p || Prefix.desc_id p <> d.Sdesc.id then
                fail "sdesc %d: allocated block %d prefix corrupt" d.Sdesc.id
                  i
            end
          done
      | _ -> ())
    ctx.slots;
  if !free <> heap.h_free_blocks then
    fail "heap %d: free_blocks=%d but descriptors sum to %d" heap.uid
      heap.h_free_blocks !free;
  if !total <> heap.h_total_blocks then
    fail "heap %d: total_blocks=%d but descriptors sum to %d" heap.uid
      heap.h_total_blocks !total
