(** Baseline 2: Ptmalloc-style arena allocator (paper §2.2).

    Multiple arenas, each a serial heap behind one lock. malloc tries the
    thread's last-used arena with a trylock; if it is held it walks the
    arena list trying each, and if every arena is locked it creates a new
    arena and adds it to the list — which is why the paper observes
    Ptmalloc running with more arenas than threads (22 arenas for 16
    threads in Larson) and why its memory use is the highest of the
    compared allocators. free must return the block to the arena it came
    from, taking that arena's lock, wherever the freeing thread runs —
    the source of its cross-thread degradation. *)

module Cfg = Mm_mem.Alloc_config
module Prefix = Mm_mem.Block_prefix
module Addr = Mm_mem.Addr

type t = {
  ctx : Sb_heap.ctx;
  lock_kind : Cfg.lock_kind;
  arena_limit : int;
  arenas : Sb_heap.heap option Rt.atomic array;
  n_arenas : int Rt.atomic;
  last_arena : int array;  (* per-thread preferred arena index *)
  list_lock : Locks.t;  (* guards arena creation *)
}

let name = "ptmalloc"

(* dlmalloc-derived bookkeeping: lighter than stock libc. *)
let op_overhead = 80

let create rt (cfg : Cfg.t) =
  let ctx = Sb_heap.create_ctx rt cfg ~op_overhead in
  let t =
    {
      ctx;
      lock_kind = cfg.lock_kind;
      arena_limit = cfg.arena_limit;
      arenas = Array.init 256 (fun _ -> Rt.Atomic.make rt None);
      n_arenas = Rt.Atomic.make rt 0;
      last_arena = Array.make Rt.max_threads 0;
      list_lock = Locks.create rt Cfg.Tas_backoff;
    }
  in
  (* The main arena always exists. *)
  let main = Sb_heap.create_heap ctx ~lock_kind:cfg.lock_kind in
  Rt.Atomic.set t.arenas.(0) (Some main);
  Rt.Atomic.set t.n_arenas 1;
  t

let rt t = Sb_heap.rt t.ctx
let store t = Sb_heap.store t.ctx
let arena_count t = Rt.Atomic.get t.n_arenas

let arena t i =
  match Rt.Atomic.get t.arenas.(i) with
  | Some h -> h
  | None -> invalid_arg "Ptmalloc_alloc: bad arena index"

(* Find an arena we can lock: last-used first, then sweep, then grow the
   list, finally block on the preferred one. Returns with the arena's
   lock held. *)
let acquire_arena t =
  let me = Rt.self (rt t) in
  let preferred = t.last_arena.(me) in
  let n = Rt.Atomic.get t.n_arenas in
  let preferred = if preferred < n then preferred else 0 in
  if Locks.try_acquire (Sb_heap.heap_lock (arena t preferred)) then
    (preferred, arena t preferred)
  else begin
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n do
      let idx = (preferred + 1 + !i) mod n in
      if Locks.try_acquire (Sb_heap.heap_lock (arena t idx)) then
        found := Some (idx, arena t idx);
      incr i
    done;
    match !found with
    | Some r -> r
    | None ->
        if n < t.arena_limit && Locks.try_acquire t.list_lock then begin
          (* All arenas busy: create a new one. *)
          let h = Sb_heap.create_heap t.ctx ~lock_kind:t.lock_kind in
          let idx = Rt.Atomic.get t.n_arenas in
          Rt.Atomic.set t.arenas.(idx) (Some h);
          Rt.Atomic.set t.n_arenas (idx + 1);
          Locks.release t.list_lock;
          Locks.acquire (Sb_heap.heap_lock h);
          (idx, h)
        end
        else begin
          Locks.acquire (Sb_heap.heap_lock (arena t preferred));
          (preferred, arena t preferred)
        end
  end

let malloc t n =
  if n < 0 then invalid_arg "Ptmalloc_alloc.malloc: negative size";
  Sb_heap.charge_overhead t.ctx;
  match Sb_heap.class_of_request t.ctx n with
  | None -> Sb_heap.large_malloc t.ctx n
  | Some sc ->
      let idx, heap = acquire_arena t in
      t.last_arena.(Rt.self (rt t)) <- idx;
      let payload =
        match Sb_heap.pop_block t.ctx heap sc with
        | Some payload -> payload
        | None ->
            ignore (Sb_heap.new_superblock t.ctx heap sc);
            (match Sb_heap.pop_block t.ctx heap sc with
            | Some payload -> payload
            | None -> assert false)
      in
      Locks.release (Sb_heap.heap_lock heap);
      payload

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
    else begin
      let d = Sb_heap.sdesc_of_prefix t.ctx prefix in
      (* The chunk goes back to its original arena, whose lock we must
         take (paper §2.2). The owner is stable: ptmalloc never migrates
         superblocks between arenas. *)
      let heap = Sb_heap.heap_of_uid t.ctx d.Sb_heap.Sdesc.owner in
      Locks.with_lock (Sb_heap.heap_lock heap) (fun () ->
          match Sb_heap.push_block t.ctx d payload with
          | `Stays -> ()
          | `Superblock_empty -> Sb_heap.maybe_release t.ctx heap d ~surplus:1)
    end
  end

let check_invariants t =
  for i = 0 to Rt.Atomic.get t.n_arenas - 1 do
    Sb_heap.check_heap_invariants t.ctx (arena t i)
  done

let instance ?name:(n = name) vrt t =
  Store.instance (store t) ~name:n ~rt:vrt ~malloc:(malloc t)
    ~free:(free t) ~usable_size:(usable_size t)
    ~check:(fun () -> check_invariants t)
