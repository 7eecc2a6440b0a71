(* Descriptor table, descriptor pool (all three reclamation variants:
   hazard pointers, IBM tags, reuse-in-place) and size-class partial
   lists (both policies). *)

open Mm_runtime
module D = Mm_core.Descriptor
module Pool = Mm_core.Desc_pool
module Pl = Mm_core.Partial_list
module D_s = Mm_core_sim.Descriptor
module Pool_s = Mm_core_sim.Desc_pool
module Anchor = Mm_core.Anchor
module Cfg = Mm_mem.Alloc_config
open Util

(* ---------------- Descriptor table ---------------- *)

let table_basics () =
  let tbl = D.create_table () ~capacity:128 in
  let batch = D.alloc_batch tbl 10 in
  Alcotest.(check int) "batch size" 10 (List.length batch);
  let ids = List.map (fun d -> d.D.id) batch in
  Alcotest.(check int) "ids unique" 10 (List.length (List.sort_uniq compare ids));
  List.iter (fun d -> Alcotest.(check bool) "id >= 1" true (d.D.id >= 1)) batch;
  List.iter
    (fun d -> Alcotest.(check bool) "get roundtrip" true (D.get tbl d.D.id == d))
    batch;
  Alcotest.(check int) "live count" 10 (D.live_count tbl)

let table_discard_recycles () =
  let tbl = D.create_table () ~capacity:128 in
  let d = List.hd (D.alloc_batch tbl 1) in
  let id = d.D.id in
  D.discard tbl d;
  Alcotest.(check bool) "dead id raises" true
    (match D.get tbl id with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let d2 = List.hd (D.alloc_batch tbl 1) in
  Alcotest.(check int) "id recycled" id d2.D.id

let table_bounds () =
  let tbl = D.create_table () ~capacity:8 in
  Alcotest.(check bool) "id 0 is null" true
    (match D.get tbl 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "exhaustion detected" true
    (match D.alloc_batch tbl 20 with
    | _ -> false
    | exception Failure _ -> true)

(* The table is flat (DESIGN.md §18): a discarded id's slot holds the
   dead sentinel, which [get] refuses and [live_count] skips, on both
   runtimes. *)
module Dead_slots (T : sig
  type table
  type t

  val alloc_batch : table -> int -> t list
  val discard : table -> t -> unit
  val get : table -> int -> t
  val live_count : table -> int
  val id : t -> int
end) =
struct
  let run tbl =
    Alcotest.(check int) "none live" 0 (T.live_count tbl);
    match T.alloc_batch tbl 3 with
    | [ a; b; c ] ->
        T.discard tbl b;
        Alcotest.(check int) "discarded slot not live" 2 (T.live_count tbl);
        Alcotest.check_raises "get of a discarded id"
          (Invalid_argument "Descriptor.get: dead id") (fun () ->
            ignore (T.get tbl (T.id b)));
        Alcotest.(check bool) "neighbours still resolve" true
          (T.get tbl (T.id a) == a && T.get tbl (T.id c) == c)
    | _ -> Alcotest.fail "batch of 3"
end

module Dead_r = Dead_slots (struct
  include D

  let id d = d.D.id
end)

module Dead_s = Dead_slots (struct
  include D_s

  let id d = d.D_s.id
end)

let table_dead_slots_real () = Dead_r.run (D.create_table () ~capacity:16)

let table_dead_slots_sim () =
  let s = sim ~cpus:1 () in
  ignore
    (Sim.run s
       [| (fun _ -> Dead_s.run (D_s.create_table s ~capacity:16)) |])

(* ---------------- Desc pool ---------------- *)

let pool_kinds =
  [ ("hazard", Cfg.Hazard); ("tagged", Cfg.Tagged); ("reuse", Cfg.Reuse) ]

let pool_alloc_retire kind () =
  let tbl = D.create_table () ~capacity:1024 in
  let pool = Pool.create () tbl ~kind ~batch_size:8 () in
  let d1 = Pool.alloc pool in
  let d2 = Pool.alloc pool in
  Alcotest.(check bool) "distinct descriptors" true (d1 != d2);
  Pool.retire pool d1;
  Pool.retire pool d2;
  Pool.flush pool;
  Alcotest.(check bool) "available after retire+flush" true
    (Pool.available pool >= 2)

let pool_exclusive kind () =
  (* Concurrent allocs never hand the same descriptor to two threads. *)
  for seed = 1 to 8 do
    let s = sim ~cpus:4 ~seed () in
    let tbl = D_s.create_table s ~capacity:4096 in
    let pool = Pool_s.create s tbl ~kind ~batch_size:4 () in
    let owned = Array.make 4 [] in
    let body tid =
      for _ = 1 to 50 do
        let d = Pool_s.alloc pool in
        owned.(tid) <- d :: owned.(tid);
        (* Return roughly half, keep the rest. *)
        if List.length owned.(tid) > 3 then begin
          match owned.(tid) with
          | d :: rest ->
              owned.(tid) <- rest;
              Pool_s.retire pool d
          | [] -> ()
        end
      done
    in
    ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
    (* No descriptor may be held by two threads at once. *)
    let all = List.concat (Array.to_list owned) in
    let ids = List.map (fun d -> d.D_s.id) all in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: held descriptors unique" seed)
      (List.length ids)
      (List.length (List.sort_uniq compare ids))
  done

let pool_reuses kind () =
  let tbl = D.create_table () ~capacity:256 in
  let pool = Pool.create () tbl ~kind ~batch_size:4 () in
  let d = Pool.alloc pool in
  Pool.retire pool d;
  Pool.flush pool;
  (* Among the next few allocations the retired descriptor must
     reappear (the freelist is LIFO-ish, but batch refills may
     interleave). *)
  let seen = ref false in
  for _ = 1 to 8 do
    if Pool.alloc pool == d then seen := true
  done;
  Alcotest.(check bool) "retired descriptor reused" true !seen

(* ---------------- Reuse-in-place specifics (DESIGN.md §17) -------- *)

let reuse_slot_identity () =
  (* batch_size 1: the second retire goes to the shared stack, so the
     two reallocations exercise both return paths — the thread's front
     and the stack's pop — and both must hand back the very same
     immortal slots. *)
  let tbl = D.create_table () ~capacity:256 in
  let pool = Pool.create () tbl ~kind:Cfg.Reuse ~batch_size:1 () in
  let a = Pool.alloc pool in
  let b = Pool.alloc pool in
  let live = D.live_count tbl in
  Pool.retire pool a;
  Pool.retire pool b;
  let a' = Pool.alloc pool in
  let b' = Pool.alloc pool in
  Alcotest.(check bool) "LIFO returns the same slot" true (a' == a);
  Alcotest.(check bool) "stack returns the same slot" true (b' == b);
  Alcotest.(check int) "no slot discarded, none created" live
    (D.live_count tbl);
  Alcotest.(check bool) "table binding stable" true (D.get tbl a.D.id == a)

let reuse_tag_monotonic () =
  (* Model reuse lives the way the allocator uses a descriptor: each
     life performs one tag-bumping anchor update. Reuse-in-place never
     resets the anchor, so the tag a slot comes back with is exactly the
     tag its last life left — the per-slot tag sequence is strictly
     increasing across lives, which is the whole ABA argument for
     skipping reclamation (DESIGN.md §17). *)
  let tbl = D.create_table () ~capacity:64 in
  let pool = Pool.create () tbl ~kind:Cfg.Reuse ~batch_size:1 () in
  let last = Hashtbl.create 8 in
  for _ = 1 to 16 do
    let a = Pool.alloc pool in
    let b = Pool.alloc pool in
    List.iter
      (fun (d : D.t) ->
        let w = Real_rt.Atomic.get d.D.anchor in
        let tag = Anchor.tag w in
        (match Hashtbl.find_opt last d.D.id with
        | Some prev ->
            Alcotest.(check int)
              (Printf.sprintf "slot %d tag preserved across reuse" d.D.id)
              prev tag
        | None -> ());
        let w' = Anchor.incr_tag w in
        Real_rt.Atomic.set d.D.anchor w';
        Hashtbl.replace last d.D.id (Anchor.tag w'))
      [ a; b ];
    Pool.retire pool a;
    Pool.retire pool b
  done

let kill_at_label kind label () =
  (* Kill the first thread to reach [label]: the survivors must finish
     their rounds and the pool must stay usable — the dead thread leaks
     at most what it held. The kill lands inside the shared tagged
     stack's push or pop CAS window. *)
  let killed = ref (-1) in
  let on_label ~tid l =
    if l = label && !killed = -1 then begin
      killed := tid;
      Sim.Kill
    end
    else Sim.Continue
  in
  let s = sim ~cpus:4 ~on_label () in
  let tbl = D_s.create_table s ~capacity:4096 in
  let pool = Pool_s.create s tbl ~kind ~batch_size:1 () in
  let body _tid =
    for _ = 1 to 12 do
      let a = Pool_s.alloc pool in
      let b = Pool_s.alloc pool in
      Pool_s.retire pool a;
      Pool_s.retire pool b
    done
  in
  let r = Sim.run s (Array.init 4 (fun i _ -> body i)) in
  Alcotest.(check bool) ("kill fired: " ^ label) true (!killed >= 0);
  Alcotest.(check int) "one thread killed" 1 r.Sim.counters.Sim.killed;
  let ok = ref false in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           let a = Pool_s.alloc pool in
           let b = Pool_s.alloc pool in
           Pool_s.retire pool a;
           Pool_s.retire pool b;
           ok := true);
       |]);
  Alcotest.(check bool) "pool usable after kill" true !ok

(* ---------------- Partial list ---------------- *)

let policies = [ ("fifo", Cfg.Fifo); ("lifo", Cfg.Lifo) ]

let mk_desc tbl state =
  let d = List.hd (D.alloc_batch tbl 1) in
  Real_rt.Atomic.set d.D.anchor (Anchor.make ~avail:0 ~count:1 ~state ~tag:0);
  d

let pl_put_get policy () =
  let tbl = D.create_table () ~capacity:128 in
  let l = Pl.create () policy in
  Alcotest.(check bool) "get empty" true (Pl.get l = None);
  let a = mk_desc tbl Anchor.Partial in
  let b = mk_desc tbl Anchor.Partial in
  Pl.put l a;
  Pl.put l b;
  Alcotest.(check int) "length" 2 (Pl.length l);
  let first = Option.get (Pl.get l) in
  (match policy with
  | Cfg.Fifo -> Alcotest.(check bool) "fifo order" true (first == a)
  | Cfg.Lifo -> Alcotest.(check bool) "lifo order" true (first == b));
  ignore (Pl.get l);
  Alcotest.(check bool) "drained" true (Pl.get l = None)

let pl_remove_empty policy () =
  let tbl = D.create_table () ~capacity:128 in
  let l = Pl.create () policy in
  let e1 = mk_desc tbl Anchor.Empty in
  let p1 = mk_desc tbl Anchor.Partial in
  let e2 = mk_desc tbl Anchor.Empty in
  Pl.put l e1;
  Pl.put l p1;
  Pl.put l e2;
  let retired = ref [] in
  Pl.remove_empty l ~retire:(fun d -> retired := d :: !retired);
  Alcotest.(check bool) "retired at least one empty" true
    (List.length !retired >= 1);
  List.iter
    (fun d ->
      Alcotest.(check bool) "only empties retired" true (d == e1 || d == e2))
    !retired;
  (* The partial descriptor must still be reachable. *)
  let rec contains () =
    match Pl.get l with
    | None -> false
    | Some d -> d == p1 || contains ()
  in
  Alcotest.(check bool) "partial survives" true (contains ())

let pl_remove_empty_buried_fifo () =
  (* Regression: the FIFO arm scans up to its bound (4) of non-empty
     descriptors, so one call reclaims an EMPTY descriptor buried behind
     three partials (the old bound of two moves left it stranded). *)
  let tbl = D.create_table () ~capacity:128 in
  let l = Pl.create () Cfg.Fifo in
  let ps = List.init 3 (fun _ -> mk_desc tbl Anchor.Partial) in
  let e = mk_desc tbl Anchor.Empty in
  List.iter (Pl.put l) ps;
  Pl.put l e;
  let retired = ref [] in
  Pl.remove_empty l ~retire:(fun d -> retired := d :: !retired);
  Alcotest.(check bool) "buried empty retired in one call" true
    (!retired = [ e ]);
  Alcotest.(check int) "partials all retained" 3 (Pl.length l)

let pl_remove_empty_on_empty_list policy () =
  let l = Pl.create () policy in
  Pl.remove_empty l ~retire:(fun _ -> Alcotest.fail "nothing to retire")

let pl_remove_empty_all_partial policy () =
  (* A list with only non-empty descriptors loses nothing and keeps all
     descriptors reachable. *)
  let tbl = D.create_table () ~capacity:128 in
  let l = Pl.create () policy in
  let ds = List.init 5 (fun _ -> mk_desc tbl Anchor.Partial) in
  List.iter (Pl.put l) ds;
  Pl.remove_empty l ~retire:(fun _ -> Alcotest.fail "retired a partial");
  Alcotest.(check int) "all retained" 5 (Pl.length l)

let cases =
  [
    case "table basics" table_basics;
    case "table discard recycles ids" table_discard_recycles;
    case "table bounds" table_bounds;
    case "table dead slots (real)" table_dead_slots_real;
    case "table dead slots (sim)" table_dead_slots_sim;
  ]
  @ List.concat_map
      (fun (name, kind) ->
        [
          case ("pool alloc/retire " ^ name) (pool_alloc_retire kind);
          case ("pool exclusivity (sim x8) " ^ name) (pool_exclusive kind);
          case ("pool reuse " ^ name) (pool_reuses kind);
        ])
      pool_kinds
  @ [
      case "reuse slot identity across free->alloc" reuse_slot_identity;
      case "reuse anchor tag monotone across lives" reuse_tag_monotonic;
      (* spill: a full front's push onto the tagged stack; steal: an
         empty front's pop from it *)
      case "reuse kill in spill window"
        (kill_at_label Cfg.Reuse Mm_lockfree.Lf_labels.tis_push_cas);
      case "reuse kill in steal window"
        (kill_at_label Cfg.Reuse Mm_lockfree.Lf_labels.tis_pop_cas);
      case "tagged kill in pop window"
        (kill_at_label Cfg.Tagged Mm_lockfree.Lf_labels.tis_pop_cas);
    ]
  @ List.concat_map
      (fun (name, policy) ->
        [
          case ("partial list put/get " ^ name) (pl_put_get policy);
          case ("partial list remove_empty " ^ name) (pl_remove_empty policy);
          case
            ("partial list remove_empty on empty " ^ name)
            (pl_remove_empty_on_empty_list policy);
          case
            ("partial list keeps partials " ^ name)
            (pl_remove_empty_all_partial policy);
        ])
      policies
  @ [ case "partial list reclaims buried empty (fifo)" pl_remove_empty_buried_fifo ]
