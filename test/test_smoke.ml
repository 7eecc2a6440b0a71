(* Early end-to-end smoke tests for the lock-free allocator on both
   compiled copies (DESIGN.md §18); the full suites live in the
   test_* modules. *)

open Mm_runtime
module Cfg = Mm_mem.Alloc_config

let cfg = Cfg.make ~nheaps:4 ()

(* The sequential body works on the runtime-erased instance, so the
   same source drives the real and the simulated copy (DESIGN.md §18). *)
module I = Mm_mem.Alloc_intf
module Ar = Mm_core.Lf_alloc
module As = Mm_core_sim.Lf_alloc

let seq (inst : I.instance) =
  let addrs = Array.init 100 (fun i -> inst.malloc (8 * (1 + (i mod 16)))) in
  let distinct = List.sort_uniq compare (Array.to_list addrs) in
  Alcotest.(check int) "distinct addresses" 100 (List.length distinct);
  (* Payload integrity: write a stamp in each block, read all back. *)
  Array.iteri (fun i a -> inst.write_word a (i * 7)) addrs;
  Array.iteri
    (fun i a ->
      Alcotest.(check int) "payload intact" (i * 7) (inst.read_word a))
    addrs;
  Array.iter inst.free addrs;
  inst.check ()

let seq_real () = seq (Ar.instance Rt.real (Ar.create () cfg))

let seq_sim () =
  let sim = Sim.create ~cpus:4 () in
  seq (As.instance (Rt.simulated sim) (As.create sim cfg))

let par_sim () =
  let sim = Sim.create ~cpus:8 ~seed:42 () in
  let t = As.create sim cfg in
  let body _ =
    let addrs = Array.init 200 (fun i -> As.malloc t (8 * (1 + (i mod 20)))) in
    Array.iter (As.free t) addrs
  in
  ignore (Sim.run sim (Array.make 8 body));
  As.check_invariants t;
  let m, f = As.op_counts t in
  Alcotest.(check int) "mallocs" (8 * 200) m;
  Alcotest.(check int) "frees" (8 * 200) f

let par_real () =
  let t = Ar.create () cfg in
  let body _ =
    for round = 1 to 20 do
      let addrs =
        Array.init 50 (fun i -> Ar.malloc t (8 * (1 + ((i + round) mod 20))))
      in
      Array.iter (Ar.free t) addrs
    done
  in
  ignore (Rt.parallel_run Rt.real (Array.make 4 body));
  Ar.check_invariants t

let cases =
  [
    Alcotest.test_case "seq real" `Quick seq_real;
    Alcotest.test_case "seq sim" `Quick seq_sim;
    Alcotest.test_case "par sim" `Quick par_sim;
    Alcotest.test_case "par real" `Quick par_real;
  ]
