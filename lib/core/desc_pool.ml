module Hp = Hazard_pointers
module Tis = Tagged_id_stack

type hazard_pool = {
  head : Descriptor.t option Rt.atomic;
  hp : Descriptor.t Hp.t;
}

(* The IBM-tag freelist (paper [18]) behind a per-thread LIFO, the
   front. [front_cap] is 0 under Tagged, so every hand-off crosses the
   stack, and [batch_size] under Reuse ("Reuse, don't Recycle",
   Arbel-Raviv & Brown; DESIGN.md §17), so a thread recycles its own
   descriptors with plain field writes (no CAS, no label: the chain is
   single-owner) and only imbalance reaches the stack. Neither kind
   ever frees a descriptor, so there is no retire list to scan, and
   over-allocation is bounded by threads x front_cap. *)
type tagged_pool = {
  stack : Tis.t;
  front_head : int array;  (* per-thread LIFO head id; -1 = empty *)
  front_len : int array;
  front_cap : int;
}

type variant = Hazard_v of hazard_pool | Tagged_v of tagged_pool

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
let rec raw_push rt head d =
  let old = Rt.Atomic.get head in
  d.Descriptor.next_d <- old;
  Rt.fence rt;
  Rt.label rt Labels.desc_push;
  if not (Rt.Atomic.compare_and_set head old (Some d)) then raw_push rt head d

let default_batch_size = 64

let create rt table ~kind ?(batch_size = default_batch_size) ?scan_threshold
    () =
  if batch_size < 1 then invalid_arg "Desc_pool.create: batch_size";
  let tagged front_cap =
    Tagged_v
      {
        stack =
          Tis.create rt
            ~get_next:(fun id -> (Descriptor.get table id).Descriptor.next_id)
            ~set_next:(fun id n ->
              (Descriptor.get table id).Descriptor.next_id <- n)
            ();
        front_head = Array.make Rt.max_threads (-1);
        front_len = Array.make Rt.max_threads 0;
        front_cap;
      }
  in
  let variant =
    match kind with
    | Mm_mem.Alloc_config.Hazard ->
        let head = Rt.Atomic.make rt None in
        let hp =
          Hp.create ?scan_threshold rt ~reuse:(fun d -> raw_push rt head d)
        in
        Hazard_v { head; hp }
    | Mm_mem.Alloc_config.Tagged -> tagged 0
    | Mm_mem.Alloc_config.Reuse -> tagged batch_size
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

(* Onto the thread's own front while it has room, else onto the shared
   stack. A thread killed mid-push leaks at most its own front, which is
   the reuse transformation's stated trade: no reclamation, bounded
   waste. *)
let tagged_put p tid (d : Descriptor.t) =
  if p.front_len.(tid) < p.front_cap then begin
    d.Descriptor.next_id <- p.front_head.(tid);
    p.front_head.(tid) <- d.Descriptor.id;
    p.front_len.(tid) <- p.front_len.(tid) + 1
  end
  else Tis.push p.stack d.Descriptor.id

(* The front first, then the stack. The stack's pop bumps its tag, and
   its next_id read needs no protection: descriptors are never freed,
   so a stale link only makes the tag-checked CAS fail. A fresh batch
   has never been shared, so no other thread can be stocking the same
   list: Fig. 7's discard-the-batch race cannot arise here. *)
let tagged_alloc t p =
  let tid = Rt.self t.rt in
  let h = p.front_head.(tid) in
  if h >= 0 then begin
    let d = Descriptor.get t.table h in
    p.front_head.(tid) <- d.Descriptor.next_id;
    p.front_len.(tid) <- p.front_len.(tid) - 1;
    d
  end
  else
    match Tis.pop p.stack with
    | Some id -> Descriptor.get t.table id
    | None -> (
        match Descriptor.alloc_batch t.table t.batch_size with
        | [] -> assert false
        | kept :: rest ->
            List.iter (tagged_put p tid) rest;
            kept)

let alloc t =
  match t.variant with
  | Hazard_v p ->
      let rec go () =
        match hazard_pop t p with
        | Some d -> d
        | None -> (
            match hazard_refill t p with Some d -> d | None -> go ())
      in
      go ()
  | Tagged_v p -> tagged_alloc t p

let retire t d =
  Rt.label t.rt Labels.desc_retire;
  match t.variant with
  | Hazard_v p -> Hp.retire p.hp d
  | Tagged_v p -> tagged_put p (Rt.self t.rt) d

let flush t =
  match t.variant with Hazard_v p -> Hp.flush p.hp | Tagged_v _ -> ()

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
  | Tagged_v p ->
      Array.fold_left ( + ) 0 p.front_len + List.length (Tis.to_list p.stack)
