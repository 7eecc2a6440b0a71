module Hp = Hazard_pointers
module Tis = Tagged_id_stack

type hazard_pool = {
  head : Descriptor.t option Rt.atomic;
  hp : Descriptor.t Hp.t;
}

(* "Reuse, don't Recycle" (Arbel-Raviv & Brown; DESIGN.md §17):
   descriptors are immortal — once allocated, a slot is never discarded
   and never passes through a reclamation scan. A retired descriptor
   goes on the retiring thread's private LIFO (plain field writes, no
   CAS, no label: the chain is single-owner); only when that LIFO holds
   [batch_size] descriptors does one spill to the shared tagged stack.
   Allocation drains the private LIFO first, then steals from the
   shared stack (a tag-bumping pop, so the IBM tag discipline that
   already guards every descriptor CAS covers the hand-off), and only
   then creates a fresh batch. Nothing is ever freed, so there is no
   retire list to scan — hp.scan disappears from the census — and the
   over-allocation is bounded by threads x batch_size. *)
type reuse_pool = {
  local_head : int array;  (* per-thread LIFO head id; -1 = empty *)
  local_len : int array;
  (* Shared spill stack, inline over the descriptors' next_id links with
     the same packed tag|id head word as Tagged_id_stack (24-bit ids,
     tag-bumping pops). Inline rather than a Tagged_id_stack, whose
     windows carry the tis.* labels, so the desc.spill / desc.steal
     labels dominate their own CAS (mm-sa's label-dominance covers
     them). *)
  spill_head : int Rt.atomic;
  next_of : int -> int;  (* descriptor id -> its next_id link *)
  on_spill_retry : unit -> unit;
  on_steal_retry : unit -> unit;
}

type variant =
  | Hazard_v of hazard_pool
  | Tagged_v of Tis.t
  | Reuse_v of reuse_pool

type t = {
  rt : Rt.t;
  table : Descriptor.table;
  batch_size : int;
  variant : variant;
}

(* Raw Treiber push over the descriptors' own next_d links. Safe without
   tags: only pops can complete erroneously under ABA (paper [8]). This is
   the push CAS of Fig. 7's DescRetire, reached here via hazard-pointer
   reclamation. *)
(* Spill-stack head word, shared layout with Tagged_id_stack:
   (tag lsl 25) lor (id + 1); id + 1 = 0 encodes the empty stack. *)
let spill_id_bits = 24
let spill_pack ~tag ~id = (tag lsl (spill_id_bits + 1)) lor (id + 1)
let spill_unpack_id w = (w land ((1 lsl (spill_id_bits + 1)) - 1)) - 1
let spill_unpack_tag w = w lsr (spill_id_bits + 1)

let rec raw_push rt head d =
  let old = Rt.Atomic.get head in
  d.Descriptor.next_d <- old;
  Rt.fence rt;
  Rt.label rt Labels.desc_push;
  if not (Rt.Atomic.compare_and_set head old (Some d)) then raw_push rt head d

let default_batch_size = 64

let create rt table ~kind ?(batch_size = default_batch_size) ?scan_threshold
    ?on_spill_retry ?on_steal_retry () =
  if batch_size < 1 then invalid_arg "Desc_pool.create: batch_size";
  let variant =
    match kind with
    | Mm_mem.Alloc_config.Hazard ->
        let head = Rt.Atomic.make rt None in
        let hp =
          Hp.create ?scan_threshold rt ~reuse:(fun d -> raw_push rt head d)
        in
        Hazard_v { head; hp }
    | Mm_mem.Alloc_config.Tagged ->
        Tagged_v
          (Tis.create rt
             ~get_next:(fun id -> (Descriptor.get table id).Descriptor.next_id)
             ~set_next:(fun id n ->
               (Descriptor.get table id).Descriptor.next_id <- n)
             ())
    | Mm_mem.Alloc_config.Reuse ->
        let nop () = () in
        Reuse_v
          {
            local_head = Array.make Rt.max_threads (-1);
            local_len = Array.make Rt.max_threads 0;
            spill_head = Rt.Atomic.make rt (spill_pack ~tag:0 ~id:(-1));
            next_of = (fun id -> (Descriptor.get table id).Descriptor.next_id);
            on_spill_retry = Option.value on_spill_retry ~default:nop;
            on_steal_retry = Option.value on_steal_retry ~default:nop;
          }
  in
  { rt; table; batch_size; variant }

(* Hazard-pointer-protected pop (the paper's SafeCAS): protect the
   candidate, re-validate the head, then CAS. A descriptor can only
   reappear at the head after passing a hazard scan, which our published
   pointer prevents. *)
let hazard_pop t p =
  let rec go spins =
    match Rt.Atomic.get p.head with
    | None -> None
    | Some d as old ->
        Hp.protect p.hp ~slot:0 d;
        if Rt.Atomic.get p.head != old then begin
          Hp.clear p.hp ~slot:0;
          go spins
        end
        else begin
          let next = d.Descriptor.next_d in
          Rt.label t.rt Labels.desc_alloc;
          if Rt.Atomic.compare_and_set p.head old next then begin
            Hp.clear p.hp ~slot:0;
            Some d
          end
          else begin
            Hp.clear p.hp ~slot:0;
            go (Backoff.spin t.rt spins)
          end
        end
  in
  go Backoff.initial

(* Stock the freelist with a fresh batch, keeping one descriptor. Mirrors
   Fig. 7 lines 5-9: if some other thread stocked the list first, discard
   the whole batch ("free the superblock") and go back to popping. *)
let hazard_refill t p =
  match Descriptor.alloc_batch t.table t.batch_size with
  | [] -> assert false
  | kept :: rest -> (
      let chain =
        List.fold_right
          (fun d acc ->
            d.Descriptor.next_d <- acc;
            Some d)
          rest None
      in
      Rt.fence t.rt;
      match chain with
      | None ->
          if Rt.Atomic.get p.head = None then Some kept
          else begin
            Descriptor.discard t.table kept;
            None
          end
      | Some _ ->
          Rt.label t.rt Labels.desc_refill;
          if Rt.Atomic.compare_and_set p.head None chain then Some kept
          else begin
            Descriptor.discard t.table kept;
            List.iter (Descriptor.discard t.table) rest;
            None
          end)

let tagged_refill t stack =
  match Descriptor.alloc_batch t.table t.batch_size with
  | [] -> assert false
  | kept :: rest ->
      List.iter (fun d -> Tis.push stack d.Descriptor.id) rest;
      Some kept

(* Single-owner push/pop on the calling thread's private LIFO — plain
   field writes, no CAS window, no label. A thread killed mid-push leaks
   at most its own chain (bounded by batch_size), which is the reuse
   transformation's stated trade: no reclamation, bounded waste. *)
let local_push r tid (d : Descriptor.t) =
  d.Descriptor.next_id <- r.local_head.(tid);
  r.local_head.(tid) <- d.Descriptor.id;
  r.local_len.(tid) <- r.local_len.(tid) + 1

let local_pop t r tid =
  let h = r.local_head.(tid) in
  if h < 0 then None
  else begin
    let d = Descriptor.get t.table h in
    r.local_head.(tid) <- d.Descriptor.next_id;
    r.local_len.(tid) <- r.local_len.(tid) - 1;
    Some d
  end

(* Spill a full private LIFO's overflow to the shared stack. Pushes
   reuse the old tag: only pops need to change it, because only a pop
   can complete erroneously under ABA (same argument as the anchor's
   tag field and Tagged_id_stack.push). *)
let spill_push t r (d : Descriptor.t) =
  let rec go spins =
    let old = Rt.Atomic.get r.spill_head in
    d.Descriptor.next_id <- spill_unpack_id old;
    Rt.fence t.rt;
    let desired =
      spill_pack ~tag:(spill_unpack_tag old) ~id:d.Descriptor.id
    in
    Rt.label t.rt Labels.desc_spill;
    if not (Rt.Atomic.compare_and_set r.spill_head old desired) then begin
      r.on_spill_retry ();
      go (Backoff.spin t.rt spins)
    end
  in
  go Backoff.initial

(* Steal a spilled descriptor: a tag-bumping pop, so a head that was
   popped and re-pushed between our read and our CAS cannot be confused
   for the unchanged head. The next_id read needs no hazard protection —
   descriptors are immortal under Reuse, so the slot is always readable,
   and a stale link only makes the CAS fail on the bumped tag. *)
let steal_pop t r =
  let rec go spins =
    let old = Rt.Atomic.get r.spill_head in
    let id = spill_unpack_id old in
    if id < 0 then None
    else begin
      let next = r.next_of id in
      let desired = spill_pack ~tag:(spill_unpack_tag old + 1) ~id:next in
      Rt.label t.rt Labels.desc_steal;
      if Rt.Atomic.compare_and_set r.spill_head old desired then
        Some (Descriptor.get t.table id)
      else begin
        r.on_steal_retry ();
        go (Backoff.spin t.rt spins)
      end
    end
  in
  go Backoff.initial

(* Fresh descriptors go straight onto the private LIFO: they have never
   been shared, so no other thread can be stocking the same list — the
   Fig. 7 discard-the-batch race cannot arise and no descriptor is ever
   returned to the table. *)
let reuse_refill t r =
  let tid = Rt.self t.rt in
  match Descriptor.alloc_batch t.table t.batch_size with
  | [] -> assert false
  | kept :: rest ->
      List.iter (fun d -> local_push r tid d) rest;
      Some kept

let reuse_alloc t r =
  let tid = Rt.self t.rt in
  match local_pop t r tid with
  | Some _ as d -> d
  | None -> (
      match steal_pop t r with
      | Some _ as d -> d
      | None -> reuse_refill t r)

let alloc t =
  let rec go () =
    let popped =
      match t.variant with
      | Hazard_v p -> (
          match hazard_pop t p with
          | Some d -> Some d
          | None -> hazard_refill t p)
      | Tagged_v stack -> (
          Rt.label t.rt Labels.desc_alloc;
          match Tis.pop stack with
          | Some id -> Some (Descriptor.get t.table id)
          | None -> tagged_refill t stack)
      | Reuse_v r -> reuse_alloc t r
    in
    match popped with Some d -> d | None -> go ()
  in
  go ()

let retire t d =
  Rt.label t.rt Labels.desc_retire;
  match t.variant with
  | Hazard_v p -> Hp.retire p.hp d
  | Tagged_v stack -> Tis.push stack d.Descriptor.id
  | Reuse_v r ->
      let tid = Rt.self t.rt in
      if r.local_len.(tid) < t.batch_size then local_push r tid d
      else spill_push t r d

let flush t =
  match t.variant with
  | Hazard_v p -> Hp.flush p.hp
  | Tagged_v _ | Reuse_v _ -> ()

(* mm-sa: allow hp-protocol: available is a quiescent-only diagnostic
   (tests and stats probes call it with no concurrent pool traffic), so
   walking the freelist without hazard protection cannot race a reuse;
   protecting every hop would serialize the walk for no safety gain. *)
let available t =
  match t.variant with
  | Hazard_v p ->
      let rec len acc = function
        | None -> acc
        | Some d -> len (acc + 1) d.Descriptor.next_d
      in
      len 0 (Rt.Atomic.get p.head) + Hp.retired_count p.hp
  | Tagged_v stack -> List.length (Tis.to_list stack)
  | Reuse_v r ->
      let rec shared acc id =
        if id < 0 then acc else shared (acc + 1) (r.next_of id)
      in
      Array.fold_left ( + ) 0 r.local_len
      + shared 0 (spill_unpack_id (Rt.Atomic.get r.spill_head))
