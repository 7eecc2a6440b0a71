module Ts = Treiber_stack

type t = {
  id : int;
  anchor : int Rt.atomic;
  pub : int Rt.atomic;
  mutable next_d : t option;
  mutable next_id : int;
  mutable sb : int;
  mutable heap_gid : int;
  mutable sz : int;
  mutable maxcount : int;
  mutable recip : int;
  mutable priv_head : int;
  mutable priv_count : int;
}

(* A flat id→record table (DESIGN.md §18), like [Store]'s regions: a
   plain [t array], so the real copy's [get] is one load. An unused
   slot holds [dead]; a slot is written before its id is published by
   a CAS or push; under simulation each access charges the atomic step
   the slot's atomic used to. *)
type table = {
  rt : Rt.t;
  slots : t array;
  lines : int array;
  dead : t;
  next : int Rt.atomic;
  free_ids : int Ts.t;
}

let blank ~id ~anchor ~pub =
  {
    id;
    anchor;
    pub;
    next_d = None;
    next_id = -1;
    sb = Mm_mem.Addr.null;
    heap_gid = -1;
    sz = 0;
    maxcount = 0;
    recip = 0;
    priv_head = 0;
    priv_count = 0;
  }

let create_table rt ~capacity =
  if capacity < 2 then invalid_arg "Descriptor.create_table: capacity";
  (* The sentinel is never read or CASed: its words take no fresh line. *)
  let word v = Rt.Atomic.make rt ~line:0 v in
  let dead = blank ~id:0 ~anchor:(word 0) ~pub:(word 0) in
  {
    rt;
    slots = Array.make capacity dead;
    lines = Rt.slot_lines capacity;
    dead;
    next = Rt.Atomic.make rt 1 (* id 0 is the NULL descriptor *);
    free_ids = Ts.create rt;
  }

let[@inline] slot tbl id =
  Rt.touch_slot tbl.rt tbl.lines id ~write:false;
  Array.unsafe_get tbl.slots id

let set_slot tbl id d =
  Rt.touch_slot tbl.rt tbl.lines id ~write:true;
  tbl.slots.(id) <- d

let fresh_id tbl =
  match Ts.pop tbl.free_ids with
  | Some id -> id
  | None ->
      let id = Rt.Atomic.fetch_and_add tbl.next 1 in
      if id >= Array.length tbl.slots then
        failwith "Descriptor: table exhausted (raise store_capacity)";
      id

let discard tbl d =
  set_slot tbl d.id tbl.dead;
  Ts.push tbl.free_ids d.id

(* When the table runs out part-way, the descriptors this batch already
   installed are discarded before the failure propagates, so a failed
   batch holds no slot. *)
let alloc_batch tbl n =
  let installed = ref [] in
  match
    List.init n (fun _ ->
        let id = fresh_id tbl in
        (* Both words take CASes from every thread that frees into the
           superblock: a cache line each ([pub]'s is taken first). *)
        let pub = Rt.Atomic.make_contended tbl.rt Pub_word.empty in
        let anchor =
          Rt.Atomic.make_contended tbl.rt
            (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Empty ~tag:0)
        in
        let d = blank ~id ~anchor ~pub in
        set_slot tbl id d;
        installed := d :: !installed;
        d)
  with
  | ds -> ds
  | exception (Failure _ as e) ->
      List.iter (discard tbl) !installed;
      raise e

let[@inline] get tbl id =
  if id < 1 || id >= Array.length tbl.slots then
    invalid_arg "Descriptor.get: id out of range";
  let d = slot tbl id in
  if d == tbl.dead then invalid_arg "Descriptor.get: dead id";
  d

let fold_live tbl ~init ~f =
  let acc = ref init in
  for id = 0 to Array.length tbl.slots - 1 do
    let d = slot tbl id in
    if d != tbl.dead then acc := f !acc d
  done;
  !acc

let live_count tbl = fold_live tbl ~init:0 ~f:(fun n _ -> n + 1)
