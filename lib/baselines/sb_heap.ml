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
  (* Flat id→record tables (DESIGN.md §18): an unused slot holds the
     dead record, and under simulation each access charges its line. *)
  slots : Sdesc.t array;
  slot_lines : int array;
  dead_sdesc : Sdesc.t;
  next_id : int Rt.atomic;
  free_ids : int Ts.t;
  heap_slots : heap array;  (* uid -> heap registry *)
  heap_lines : int array;
  dead_heap : heap;
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
  let dead_sdesc =
    {
      Sdesc.id = 0;
      lock = Locks.placeholder rt;
      line = 0;
      sb = Addr.null;
      sz = 0;
      maxcount = 0;
      avail = 0;
      count = 0;
      owner = -1;
      sc = 0;
    }
  and dead_heap =
    {
      uid = -1;
      hlock = Locks.placeholder rt;
      hline = 0;
      partial = [||];
      h_free_blocks = 0;
      h_total_blocks = 0;
    }
  in
  {
    rt;
    store =
      Store.create rt ~capacity:cfg.store_capacity ~sbsize:cfg.sbsize
        ~hyperblocks:cfg.hyperblocks ();
    classes = Sc.make ~sbsize:cfg.sbsize ();
    op_overhead;
    slots = Array.make (2 * cfg.store_capacity) dead_sdesc;
    slot_lines = Rt.slot_lines (2 * cfg.store_capacity);
    dead_sdesc;
    next_id = Rt.Atomic.make rt 1;
    free_ids = Ts.create rt;
    heap_slots = Array.make 256 dead_heap;
    heap_lines = Rt.slot_lines 256;
    dead_heap;
    heap_count = Rt.Atomic.make rt 0;
  }

let set_sdesc ctx id d =
  Rt.touch_slot ctx.rt ctx.slot_lines id ~write:true;
  ctx.slots.(id) <- d

let sdesc ctx id =
  Rt.touch_slot ctx.rt ctx.slot_lines id ~write:false;
  ctx.slots.(id)

let rt ctx = ctx.rt
let dead_heap ctx = ctx.dead_heap
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
  Rt.touch_slot ctx.rt ctx.heap_lines uid ~write:true;
  ctx.heap_slots.(uid) <- heap;
  heap

let heap_uid h = h.uid
let heap_lock h = h.hlock

let heap_of_uid ctx uid =
  if uid < 0 || uid >= Array.length ctx.heap_slots then
    invalid_arg "Sb_heap.heap_of_uid: unknown heap";
  Rt.touch_slot ctx.rt ctx.heap_lines uid ~write:false;
  let h = ctx.heap_slots.(uid) in
  if h == ctx.dead_heap then invalid_arg "Sb_heap.heap_of_uid: unknown heap";
  h

let sdesc_of_prefix ctx prefix =
  let id = Prefix.desc_id prefix in
  if id < 1 || id >= Array.length ctx.slots then
    invalid_arg "Sb_heap: corrupt block prefix";
  let d = sdesc ctx id in
  if d == ctx.dead_sdesc then
    invalid_arg "Sb_heap: block prefix names a dead descriptor";
  d

let class_of_request ctx n = Sc.class_of_request ctx.classes n

let usable_size ctx payload =
  let prefix = Store.read_word ctx.store (payload - Prefix.prefix_bytes) in
  (if Prefix.is_large prefix then Prefix.large_len prefix
   else (sdesc_of_prefix ctx prefix).Sdesc.sz)
  - Prefix.prefix_bytes

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
  set_sdesc ctx d.Sdesc.id d;
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
  set_sdesc ctx d.Sdesc.id ctx.dead_sdesc;
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
     superblock owned by this heap through the descriptor table (the
     dead record's owner is -1, never a heap's uid). *)
  for id = 0 to Array.length ctx.slots - 1 do
    let d = sdesc ctx id in
    if d.Sdesc.owner = heap.uid then begin
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
    end
  done;
  if !free <> heap.h_free_blocks then
    fail "heap %d: free_blocks=%d but descriptors sum to %d" heap.uid
      heap.h_free_blocks !free;
  if !total <> heap.h_total_blocks then
    fail "heap %d: total_blocks=%d but descriptors sum to %d" heap.uid
      heap.h_total_blocks !total
