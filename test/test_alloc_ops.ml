(* Derived operations (calloc / realloc / usable_size)
   across every registered allocator. *)

open Mm_runtime
module I = Mm_mem.Alloc_intf
module Ops = Mm_mem.Alloc_ops
open Util

let with_inst name f = f (instance name Rt.real)

let usable_at_least name () =
  with_inst name (fun inst ->
      List.iter
        (fun n ->
          let a = inst.I.malloc n in
          let u = inst.I.usable_size a in
          Alcotest.(check bool)
            (Printf.sprintf "usable %d >= %d" u n)
            true (u >= n);
          (* The whole usable range is writable and readable. *)
          inst.I.write_word (a + ((u / 8 * 8) - 8)) 7;
          inst.I.free a)
        [ 0; 1; 8; 100; 2040; 2041; 100_000 ])

let calloc_zeroes name () =
  with_inst name (fun inst ->
      (* Dirty a block, free it, calloc the same class: must be zero. *)
      let d = inst.I.malloc 64 in
      for w = 0 to 7 do
        inst.I.write_word (d + (8 * w)) max_int
      done;
      inst.I.free d;
      let a = Ops.calloc inst ~count:8 ~size:8 in
      for w = 0 to 7 do
        Alcotest.(check int) "zeroed" 0
          (inst.I.read_word (a + (8 * w)))
      done;
      inst.I.free a)

let realloc_semantics name () =
  with_inst name (fun inst ->
      (* null -> malloc *)
      let a = Ops.realloc inst 0 16 in
      Alcotest.(check bool) "realloc null allocates" true (a <> 0);
      inst.I.write_word a 11;
      inst.I.write_word (a + 8) 22;
      (* shrink: same block *)
      let b = Ops.realloc inst a 8 in
      Alcotest.(check int) "shrink in place" a b;
      (* grow into a different class preserving contents *)
      let c = Ops.realloc inst b 5_000 in
      Alcotest.(check bool) "grow reallocates" true (c <> b);
      Alcotest.(check int) "word 0 preserved" 11 (inst.I.read_word c);
      Alcotest.(check int) "word 1 preserved" 22
        (inst.I.read_word (c + 8));
      Alcotest.(check bool) "grown usable" true
        (inst.I.usable_size c >= 5_000);
      (* grow a large block further *)
      let d = Ops.realloc inst c 50_000 in
      Alcotest.(check int) "contents survive large growth" 11
        (inst.I.read_word d);
      inst.I.free d;
      inst.I.check ())

let realloc_concurrent () =
  (* realloc churn from several simulated threads. *)
  let s = sim ~cpus:4 () in
  let inst = instance "new" (Rt.simulated s) in
  let body tid =
    let rng = Prng.create (tid + 5) in
    let a = ref (inst.I.malloc 8) in
    for _ = 1 to 200 do
      a := Ops.realloc inst !a (Prng.int_in rng 1 600)
    done;
    inst.I.free !a
  in
  ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
  inst.I.check ()

let cases =
  List.concat_map
    (fun name ->
      [
        case (name ^ "/usable_size") (usable_at_least name);
        case (name ^ "/calloc zeroes") (calloc_zeroes name);
        case (name ^ "/realloc") (realloc_semantics name);
      ])
    all_allocators
  @ [ case "realloc concurrent" realloc_concurrent ]
