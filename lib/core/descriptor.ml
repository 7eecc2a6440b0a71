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
  mutable priv_head : int;
  mutable priv_count : int;
}

type table = {
  rt : Rt.t;
  slots : t option Rt.atomic array;
  next : int Rt.atomic;
  free_ids : int Ts.t;
}

let create_table rt ~capacity =
  if capacity < 2 then invalid_arg "Descriptor.create_table: capacity";
  {
    rt;
    slots = Array.init capacity (fun _ -> Rt.Atomic.make rt None);
    next = Rt.Atomic.make rt 1 (* id 0 is the NULL descriptor *);
    free_ids = Ts.create rt;
  }

let fresh_id tbl =
  match Ts.pop tbl.free_ids with
  | Some id -> id
  | None ->
      let id = Rt.Atomic.fetch_and_add tbl.next 1 in
      if id >= Array.length tbl.slots then
        failwith "Descriptor: table exhausted (raise store_capacity)";
      id

let discard tbl d =
  Rt.Atomic.set tbl.slots.(d.id) None;
  Ts.push tbl.free_ids d.id

(* When the table runs out part-way, the descriptors this batch already
   installed are discarded before the failure propagates, so a failed
   batch holds no slot. *)
let alloc_batch tbl n =
  let installed = ref [] in
  match
    List.init n (fun _ ->
        let id = fresh_id tbl in
        let d =
          {
            id;
            (* Both words take CASes from every thread that frees into
               the superblock: a cache line each. *)
            anchor =
              Rt.Atomic.make_contended tbl.rt
                (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Empty ~tag:0);
            pub = Rt.Atomic.make_contended tbl.rt Pub_word.empty;
            next_d = None;
            next_id = -1;
            sb = Mm_mem.Addr.null;
            heap_gid = -1;
            sz = 0;
            maxcount = 0;
            priv_head = 0;
            priv_count = 0;
          }
        in
        Rt.Atomic.set tbl.slots.(id) (Some d);
        installed := d :: !installed;
        d)
  with
  | ds -> ds
  | exception (Failure _ as e) ->
      List.iter (discard tbl) !installed;
      raise e

let get tbl id =
  if id < 1 || id >= Array.length tbl.slots then
    invalid_arg "Descriptor.get: id out of range";
  match Rt.Atomic.get tbl.slots.(id) with
  | Some d -> d
  | None -> invalid_arg "Descriptor.get: dead id"

let fold_live tbl ~init ~f =
  Array.fold_left
    (fun acc slot ->
      match Rt.Atomic.get slot with Some d -> f acc d | None -> acc)
    init tbl.slots

let live_count tbl = fold_live tbl ~init:0 ~f:(fun n _ -> n + 1)
