(* [clean] = every byte is still zero (fresh mapping). Cleared when the
   region is returned to the superblock pool with its contents stale;
   [init_free_list] restores the all-zero-but-links state lazily, so a
   recycled superblock never pays an eager full-superblock fill. *)
type region = { bytes : Bytes.t; base : int; len : int; mutable clean : bool }

type os_stats = Alloc_intf.os_stats = {
  mmap_calls : int;
  munmap_calls : int;
  sb_allocs : int;
  sb_frees : int;
  sb_reuses : int;
  large_mmaps : int;
  large_munmaps : int;
  pages_requested : int;
  pages_granted : int;
}

let page = 4096
let round_pages n = (n + page - 1) / page * page

module Ts = Treiber_stack

type t = {
  rt : Rt.t;
  capacity : int;
  regions : region option Rt.atomic array;
  next_id : int Rt.atomic;
  free_ids : int Ts.t;  (* recycled region ids (large blocks) *)
  sb_pool : int Ts.t;  (* recycled superblock region ids, bytes kept *)
  sbsize : int;
  hyperblocks : bool;
  sbs_per_hyper : int;
  space : Space.t;
  mmap_calls : int Rt.atomic;
  munmap_calls : int Rt.atomic;
  sb_allocs : int Rt.atomic;
  sb_frees : int Rt.atomic;
  sb_reuses : int Rt.atomic;
  large_mmaps : int Rt.atomic;
  large_munmaps : int Rt.atomic;
  pages_requested : int Rt.atomic;
  pages_granted : int Rt.atomic;
}

let create rt ?(capacity = 65536) ?(sbsize = 16 * 1024) ?(hyperblocks = false)
    () =
  if capacity < 2 then invalid_arg "Store.create: capacity too small";
  {
    rt;
    capacity;
    regions = Array.init capacity (fun _ -> Rt.Atomic.make rt None);
    next_id = Rt.Atomic.make rt 1 (* region 0 reserved: Addr.null *);
    free_ids = Ts.create rt;
    sb_pool = Ts.create rt;
    sbsize;
    hyperblocks;
    sbs_per_hyper = Int.max 1 (1024 * 1024 / sbsize);
    space = Space.create rt;
    mmap_calls = Rt.Atomic.make rt 0;
    munmap_calls = Rt.Atomic.make rt 0;
    sb_allocs = Rt.Atomic.make rt 0;
    sb_frees = Rt.Atomic.make rt 0;
    sb_reuses = Rt.Atomic.make rt 0;
    large_mmaps = Rt.Atomic.make rt 0;
    large_munmaps = Rt.Atomic.make rt 0;
    pages_requested = Rt.Atomic.make rt 0;
    pages_granted = Rt.Atomic.make rt 0;
  }

let rt t = t.rt
let sbsize t = t.sbsize
let space t = t.space

let os_stats t =
  {
    mmap_calls = Rt.Atomic.get t.mmap_calls;
    munmap_calls = Rt.Atomic.get t.munmap_calls;
    sb_allocs = Rt.Atomic.get t.sb_allocs;
    sb_frees = Rt.Atomic.get t.sb_frees;
    sb_reuses = Rt.Atomic.get t.sb_reuses;
    large_mmaps = Rt.Atomic.get t.large_mmaps;
    large_munmaps = Rt.Atomic.get t.large_munmaps;
    pages_requested = Rt.Atomic.get t.pages_requested;
    pages_granted = Rt.Atomic.get t.pages_granted;
  }

let fresh_id t =
  match Ts.pop t.free_ids with
  | Some id -> id
  | None ->
      let id = Rt.Atomic.fetch_and_add t.next_id 1 in
      if id >= t.capacity then
        failwith "Store: region table exhausted (raise ~capacity)";
      id

let install t id region = Rt.Atomic.set t.regions.(id) (Some region)

(* One simulated mmap of [len] bytes; [slices] regions are carved out of
   it (1 for large blocks / plain superblocks, [sbs_per_hyper] for
   hyperblocks). Returns the ids in order. [site] distinguishes
   superblock, large-block and span traffic in the observability
   stream; [clean:false] marks a region whose extents may be written
   and re-carved out of order (spans), so lazy re-zeroing never trusts
   the fresh-mapping flag. When the region table runs out the mapping
   is undone before the failure propagates: the ids already installed
   go back to the table and [mapped] drops by [len] again, so a failed
   mmap holds nothing. *)
let mmap t ~len ~slices ~slice_len ~site ?(clean = true) () =
  Rt.syscall t.rt;
  Rt.Atomic.incr t.mmap_calls;
  Rt.obs_event t.rt Rt.Obs.Mmap site;
  Space.add_mapped t.space (round_pages len);
  let bytes = Bytes.make len '\000' in
  let installed = ref [] in
  match
    List.init slices (fun i ->
        let id = fresh_id t in
        install t id { bytes; base = i * slice_len; len = slice_len; clean };
        installed := id :: !installed;
        id)
  with
  | ids -> ids
  | exception (Failure _ as e) ->
      List.iter
        (fun id ->
          Rt.Atomic.set t.regions.(id) None;
          Ts.push t.free_ids id)
        !installed;
      Space.add_mapped t.space (-round_pages len);
      raise e

let alloc_superblock t =
  Rt.Atomic.incr t.sb_allocs;
  match Ts.pop t.sb_pool with
  | Some id ->
      (* Reuse of pooled bytes: no syscall, no mmap — the mapping never
         went away. Counted separately ([sb_reuses]) so the OS census
         distinguishes real mmap traffic from pool hits; the stale
         contents are zeroed lazily by [init_free_list] (the region's
         [clean] flag), never by an eager full-superblock fill. *)
      Rt.Atomic.incr t.sb_reuses;
      if not t.hyperblocks then Space.add_mapped t.space t.sbsize;
      Addr.make ~region:id ~offset:0
  | None ->
      if t.hyperblocks then begin
        let ids =
          mmap t
            ~len:(t.sbsize * t.sbs_per_hyper)
            ~slices:t.sbs_per_hyper ~slice_len:t.sbsize ~site:"store.mmap" ()
        in
        match ids with
        | first :: rest ->
            List.iter (fun id -> Ts.push t.sb_pool id) rest;
            Addr.make ~region:first ~offset:0
        | [] -> assert false
      end
      else
        let ids =
          mmap t ~len:t.sbsize ~slices:1 ~slice_len:t.sbsize
            ~site:"store.mmap" ()
        in
        Addr.make ~region:(List.hd ids) ~offset:0

let free_superblock t addr =
  if Addr.offset addr <> 0 then
    invalid_arg "Store.free_superblock: not a region base";
  Rt.Atomic.incr t.sb_frees;
  if not t.hyperblocks then begin
    Rt.syscall t.rt;
    Rt.Atomic.incr t.munmap_calls;
    Space.add_mapped t.space (-t.sbsize)
  end;
  (match Rt.Atomic.get t.regions.(Addr.region addr) with
  | Some r -> r.clean <- false
  | None -> ());
  Ts.push t.sb_pool (Addr.region addr)

let alloc_large t ~len =
  if len <= 0 then invalid_arg "Store.alloc_large: len must be positive";
  Rt.Atomic.incr t.large_mmaps;
  let ids = mmap t ~len ~slices:1 ~slice_len:len ~site:"store.mmap.large" () in
  Addr.make ~region:(List.hd ids) ~offset:0

(* Unmap a whole region (large block or losing span candidate). *)
let unmap_region t addr ~what =
  if Addr.offset addr <> 0 then
    invalid_arg (Printf.sprintf "Store.%s: not a region base" what);
  let id = Addr.region addr in
  match Rt.Atomic.get t.regions.(id) with
  | None -> invalid_arg (Printf.sprintf "Store.%s: dead region" what)
  | Some r ->
      Rt.syscall t.rt;
      Rt.Atomic.incr t.munmap_calls;
      Space.add_mapped t.space (-round_pages r.len);
      Rt.Atomic.set t.regions.(id) None;
      Ts.push t.free_ids id

let free_large t addr =
  Rt.Atomic.incr t.large_munmaps;
  unmap_region t addr ~what:"free_large"

(* Spans (lib/pages): one page-multiple mapping per span, carved into
   extents by the buddy. Installed dirty ([clean:false]) because large
   payloads are written into carved extents and later re-carved into
   superblocks, which must then lazily re-zero. *)
let alloc_span t ~pages =
  if pages < 1 then invalid_arg "Store.alloc_span: pages must be positive";
  let len = pages * page in
  let ids =
    mmap t ~len ~slices:1 ~slice_len:len ~site:"store.mmap.span" ~clean:false
      ()
  in
  Addr.make ~region:(List.hd ids) ~offset:0

let free_span t addr = unmap_region t addr ~what:"free_span"

let note_buddy_grant t ~requested ~granted =
  ignore (Rt.Atomic.fetch_and_add t.pages_requested requested);
  ignore (Rt.Atomic.fetch_and_add t.pages_granted granted)

let[@inline] region_of t addr =
  let id = Addr.region addr in
  if id <= 0 || id >= t.capacity then None else Rt.Atomic.get t.regions.(id)

let region_len t addr =
  match region_of t addr with None -> 0 | Some r -> r.len

let live_regions t =
  let n = ref 0 in
  Array.iter (fun a -> if Rt.Atomic.get a <> None then incr n) t.regions;
  !n

(* A non-racy out-of-bounds word access is a miscomputed address: under
   simulation (where lib/check drives schedules) fail loudly so the
   explorer pins it; in real mode keep the tolerant unmapped-memory
   analogue. Dead regions stay tolerant in both modes, and
   [read_word_racy] is tolerant everywhere: the paper's racy read can
   target a block recycled, or a region retired, between the read of
   the anchor and the dereference. *)
let[@inline never] oob_fail addr off len ~what =
  failwith
    (Printf.sprintf "Store.%s: out-of-bounds offset %d (region len %d) at %d"
       what off len addr)

(* The access itself is [Rt.read_word]/[Rt.write_word], which charges
   the cache line under the simulator and is a bare little-endian
   [Bytes] access on the real runtime. [Rt.is_sim] is a constant of the
   copy being compiled (DESIGN.md §18), so the real copy drops the
   [oob_fail] branch. All three are [@inline]: a caller in another
   module compiles the access into its own body. *)

let[@inline] read_word t addr =
  match region_of t addr with
  | None -> 0
  | Some r ->
      let off = Addr.offset addr in
      if off < 0 || off + 8 > r.len then begin
        if Rt.is_sim then oob_fail addr off r.len ~what:"read_word";
        0
      end
      else Rt.read_word t.rt r.bytes (r.base + off) ~line:(Addr.line addr)

let[@inline] read_word_racy t addr =
  match region_of t addr with
  | None -> 0
  | Some r ->
      let off = Addr.offset addr in
      if off < 0 || off + 8 > r.len then 0
      else Rt.read_word t.rt r.bytes (r.base + off) ~line:(Addr.line addr)

let[@inline] write_word t addr v =
  match region_of t addr with
  | None -> ()
  | Some r ->
      let off = Addr.offset addr in
      if off < 0 || off + 8 > r.len then begin
        if Rt.is_sim then oob_fail addr off r.len ~what:"write_word"
      end
      else Rt.write_word t.rt r.bytes (r.base + off) ~line:(Addr.line addr) v

(* The two steps that follow a payload's 8-byte block prefix down to
   the block base, given the word just below the payload: an
   aligned_alloc offset word points further down. *)
let[@inline] base_payload payload word =
  if Block_prefix.is_offset word then payload - Block_prefix.offset_delta word
  else payload

let[@inline] base_prefix t ~base_payload word =
  if Block_prefix.is_offset word then
    read_word t (base_payload - Block_prefix.prefix_bytes)
  else word

let init_free_list ?limit t addr ~sz ~maxcount =
  match region_of t addr with
  | None -> invalid_arg "Store.init_free_list: dead region"
  | Some r ->
      let off = Addr.offset addr in
      if off + (sz * maxcount) > r.len then
        invalid_arg "Store.init_free_list: out of bounds";
      (* [limit] confines the lazy re-zeroing to the superblock's own
         extent — a superblock carved out of a span must not touch its
         neighbours' bytes. Without it the whole region is restored
         (whole-region superblocks, where the two are the same thing). *)
      let hi = match limit with None -> r.len | Some l -> Int.min r.len (off + l) in
      if not r.clean then begin
        (* Recycled bytes: restore the zero state lazily, skipping the
           link words rewritten just below. One pass over the block
           bodies plus the tail the blocks don't cover. *)
        for i = 0 to maxcount - 1 do
          Bytes.fill r.bytes (r.base + off + (i * sz) + 8) (sz - 8) '\000'
        done;
        let covered = off + (sz * maxcount) in
        if covered < hi then
          Bytes.fill r.bytes (r.base + covered) (hi - covered) '\000';
        if limit = None && off > 0 then Bytes.fill r.bytes r.base off '\000'
      end;
      r.clean <- false;
      for i = 0 to maxcount - 1 do
        Bytes.set_int64_le r.bytes (r.base + off + (i * sz)) (Int64.of_int (i + 1))
      done;
      (* The superblock is private until published; charge the traffic as
         one cold streaming write. *)
      Rt.touch_batch t.rt ~line:(Addr.line addr) ~write:true ~count:maxcount

let write_payload_round t addr ~len ~times =
  match region_of t addr with
  | None -> ()
  | Some r -> (
      let off = Addr.offset addr in
      let len = Int.min len (Int.max 0 (r.len - off)) in
      if len > 0 then
        if not Rt.is_sim then
          for _ = 1 to times do
            Bytes.unsafe_fill r.bytes (r.base + off) len 'w'
          done
        else begin
          (* Split into a few batches so concurrent writers to a shared
             line still ping-pong in the cache model. *)
          let total = len * times in
          let chunks = Int.min 8 (Int.max 1 times) in
          let per = Int.max 1 (total / chunks) in
          let remaining = ref total in
          while !remaining > 0 do
            let n = Int.min per !remaining in
            Rt.touch_batch t.rt ~line:(Addr.line addr) ~write:true ~count:n;
            remaining := !remaining - n
          done
        end)

let instance t ~name ~rt ~malloc ~free ~usable_size ~check =
  {
    Alloc_intf.name;
    rt;
    malloc;
    free;
    usable_size;
    read_word = (fun addr -> read_word t addr);
    write_word = (fun addr v -> write_word t addr v);
    write_payload_round =
      (fun addr ~len ~times -> write_payload_round t addr ~len ~times);
    space = (fun () -> Space.read t.space);
    os_stats = (fun () -> os_stats t);
    check;
  }
