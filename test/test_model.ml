(* Model-based testing: random operation sequences against a reference
   model. The model tracks live blocks as address intervals; the
   allocator must hand out non-overlapping intervals, remember payloads,
   and satisfy its own structural invariants at every quiescent point. *)

open Mm_runtime
module I = Mm_mem.Alloc_intf
module Ops = Mm_mem.Alloc_ops
open Util

type op = Malloc of int | Free of int | Realloc of int * int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Malloc n) (int_range 0 3_000);
        map (fun i -> Free i) (int_range 0 1_000);
        map2 (fun i n -> Realloc (i, n)) (int_range 0 1_000) (int_range 0 3_000);
      ])

(* Live blocks: (payload addr, usable, stamp). *)
let overlaps (a1, u1) (a2, u2) = a1 < a2 + u2 && a2 < a1 + u1

let run_ops name ops =
  let inst = instance name Rt.real in
  let live = ref [] in
  let stamp = ref 0 in
  let add addr =
    let u = inst.I.usable_size addr in
    (* Non-overlap with every live block. *)
    List.iter
      (fun (a, u', _) ->
        if overlaps (addr, u) (a, u') then
          Alcotest.failf "%s: block %#x+%d overlaps %#x+%d" name addr u a u')
      !live;
    incr stamp;
    inst.I.write_word addr !stamp;
    live := (addr, u, !stamp) :: !live
  in
  List.iter
    (fun op ->
      match op with
      | Malloc n -> add (inst.I.malloc n)
      | Free i -> (
          match !live with
          | [] -> ()
          | l ->
              let k = i mod List.length l in
              let a, _, st = List.nth l k in
              Alcotest.(check int) "stamp intact before free" st
                (inst.I.read_word a);
              live := List.filteri (fun j _ -> j <> k) l;
              inst.I.free a)
      | Realloc (i, n) -> (
          match !live with
          | [] -> ()
          | l ->
              let k = i mod List.length l in
              let a, _, st = List.nth l k in
              live := List.filteri (fun j _ -> j <> k) l;
              let a' = Ops.realloc inst a n in
              let u' = inst.I.usable_size a' in
              Alcotest.(check bool) "realloc grew enough" true (u' >= n);
              Alcotest.(check int) "stamp survives realloc" st
                (inst.I.read_word a');
              List.iter
                (fun (b, ub, _) ->
                  if overlaps (a', u') (b, ub) then
                    Alcotest.fail "realloc result overlaps live block")
                !live;
              live := (a', u', st) :: !live))
    ops;
  (* Final stamps all intact, then drain and check invariants. *)
  List.iter
    (fun (a, _, st) ->
      Alcotest.(check int) "final stamp" st (inst.I.read_word a);
      inst.I.free a)
    !live;
  inst.I.check ()

let model_case name =
  qcheck ~count:25 ("model sequence vs " ^ name)
    QCheck2.Gen.(list_size (int_range 30 120) op_gen)
    (fun ops ->
      run_ops name ops;
      true)

let cases = List.map model_case all_allocators
