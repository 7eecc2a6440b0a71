(** Baseline 3: Hoard-style allocator (Berger et al., ASPLOS 2000; paper
    §2.2).

    Per-processor heaps plus one global heap, all lock-based. malloc locks
    the calling thread's processor heap (one acquisition in the common
    case) and pulls superblocks from the global heap when the processor
    heap runs dry. free returns the block to the superblock's {e owning}
    heap — wherever that is — taking that heap's lock and the superblock's
    own lock for the fullness-statistics update, the "typically two lock
    acquisitions" of the paper's description, and the reason the
    producer-consumer pattern hammers the producer's heap lock. When a
    superblock in a processor heap becomes completely free it is moved to
    the global heap, bounding space blowup as in Hoard; the global heap
    releases surplus empty superblocks to the OS. *)

module Cfg = Mm_mem.Alloc_config
module Prefix = Mm_mem.Block_prefix
module Addr = Mm_mem.Addr

type t = {
  ctx : Sb_heap.ctx;
  global : Sb_heap.heap;  (* uid 0 *)
  procs : Sb_heap.heap array;  (* uids 1..n *)
}

let name = "hoard"

(* Superblock-and-fullness-statistics bookkeeping. *)
let op_overhead = 90

(* Empty superblocks the global heap keeps per size class before
   releasing to the OS. *)
let global_empty_surplus = 2

let create rt (cfg : Cfg.t) =
  let ctx = Sb_heap.create_ctx rt cfg ~op_overhead in
  let global = Sb_heap.create_heap ctx ~lock_kind:cfg.lock_kind in
  assert (Sb_heap.heap_uid global = 0);
  let n = Cfg.resolve_nheaps cfg ~num_cpus:(Rt.num_cpus rt) in
  let procs =
    Array.init n (fun _ -> Sb_heap.create_heap ctx ~lock_kind:cfg.lock_kind)
  in
  { ctx; global; procs }

let rt t = Sb_heap.rt t.ctx
let store t = Sb_heap.store t.ctx

let my_heap t = t.procs.(Rt.self (rt t) mod Array.length t.procs)

(* Lock ordering: processor heap before global heap, everywhere. *)

let malloc t n =
  if n < 0 then invalid_arg "Hoard_alloc.malloc: negative size";
  Sb_heap.charge_overhead t.ctx;
  match Sb_heap.class_of_request t.ctx n with
  | None -> Sb_heap.large_malloc t.ctx n
  | Some sc ->
      let heap = my_heap t in
      Locks.with_lock (Sb_heap.heap_lock heap) (fun () ->
          match Sb_heap.pop_block t.ctx heap sc with
          | Some payload -> payload
          | None ->
              (* Check the global heap for a superblock of this class. *)
              Locks.acquire (Sb_heap.heap_lock t.global);
              let moved = Sb_heap.take_superblock t.ctx t.global sc in
              Locks.release (Sb_heap.heap_lock t.global);
              (match moved with
              | Some d -> Sb_heap.attach_superblock t.ctx heap d
              | None -> ignore (Sb_heap.new_superblock t.ctx heap sc));
              (match Sb_heap.pop_block t.ctx heap sc with
              | Some payload -> payload
              | None -> assert false))

let usable_size t payload = Sb_heap.usable_size t.ctx payload

let free t payload =
  if payload = Addr.null then ()
  else begin
    Sb_heap.charge_overhead t.ctx;
    let base = payload - Prefix.prefix_bytes in
    let prefix = Store.read_word (Sb_heap.store t.ctx) base in
    if Prefix.is_large prefix then Sb_heap.large_free t.ctx base
    else begin
      let d = Sb_heap.sdesc_of_prefix t.ctx prefix in
      (* First acquisition: the owning heap. The owner may migrate while
         we wait, so re-check after locking. *)
      let rec lock_owner () =
        let heap = Sb_heap.heap_of_uid t.ctx d.Sb_heap.Sdesc.owner in
        Locks.acquire (Sb_heap.heap_lock heap);
        if d.Sb_heap.Sdesc.owner = Sb_heap.heap_uid heap then heap
        else begin
          Locks.release (Sb_heap.heap_lock heap);
          lock_owner ()
        end
      in
      let heap = lock_owner () in
      (* Second acquisition: the superblock's fullness statistics. *)
      Locks.acquire d.Sb_heap.Sdesc.lock;
      let status = Sb_heap.push_block t.ctx d payload in
      Locks.release d.Sb_heap.Sdesc.lock;
      (match status with
      | `Stays -> ()
      | `Superblock_empty ->
          if Sb_heap.heap_uid heap = 0 then begin
            (* Already global: release OS surplus. *)
            let empties =
              Sb_heap.empty_superblocks t.ctx t.global d.Sb_heap.Sdesc.sc
            in
            if List.length empties > global_empty_surplus then
              Sb_heap.release_superblock t.ctx t.global d
          end
          else begin
            (* Hoard's emptiness invariant (f = 1/4, K = 2): migrate a
               superblock to the global heap only once the heap holds
               more than two superblocks' worth of free blocks and is
               more than a quarter empty. *)
            let a = Sb_heap.total_blocks heap in
            let f = Sb_heap.free_blocks heap in
            if f > 2 * d.Sb_heap.Sdesc.maxcount && 4 * f > a then begin
              Sb_heap.detach_superblock t.ctx heap d;
              Locks.acquire (Sb_heap.heap_lock t.global);
              Sb_heap.attach_superblock t.ctx t.global d;
              Locks.release (Sb_heap.heap_lock t.global)
            end
          end);
      Locks.release (Sb_heap.heap_lock heap)
    end
  end

let check_invariants t =
  Sb_heap.check_heap_invariants t.ctx t.global;
  Array.iter (Sb_heap.check_heap_invariants t.ctx) t.procs

let instance ?name:(n = name) vrt t =
  Store.instance (store t) ~name:n ~rt:vrt ~malloc:(malloc t)
    ~free:(free t) ~usable_size:(usable_size t)
    ~check:(fun () -> check_invariants t)
